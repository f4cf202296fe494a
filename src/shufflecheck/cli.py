"""Command-line front end.

Exit codes: 0 the property holds (or the requested check passed), 1 it
fails, 2 the bounded analysis was inconclusive, 3 usage or input error,
argparse's usage errors included; `--help` exits 0.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from . import decision, petri, representation, scalable, segments
from .automata import (
    Dfa,
    ParseError,
    ShufflecheckError,
    complete,
    parse_automaton,
    serialize_automaton,
    word,
)
from .engine import (
    ZERO,
    parse_transitions,
    parse_vector,
    pre_shuffle_member,
    shuffle_member,
    sp_falsify,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def _load(path: str) -> Dfa:
    with open(path, encoding="utf-8") as fh:
        return parse_automaton(fh.read())


def cmd_decide(args) -> int:
    P = _load(args.components)
    V = _load(args.constraint)
    budgets = decision.Budgets.profile(args.profile) if args.profile else None
    verdict = decision.decide_sp(P, V, args.mode, budgets)
    sys.stdout.write(decision.serialize_verdict(verdict))
    return {
        decision.HOLDS: EXIT_HOLDS,
        decision.FAILS: EXIT_FAILS,
        decision.UNKNOWN: EXIT_UNKNOWN,
    }[verdict.outcome]


def cmd_falsify(args) -> int:
    comp, V = decision.prepare_query(
        _load(args.components), _load(args.constraint), args.mode
    )
    found = sp_falsify(comp, V, args.maxlen)
    if found is None:
        print(f"no counterexample up to length {args.maxlen}")
        return EXIT_UNKNOWN
    print("\n".join(decision.certificate_lines(decision.fails_certificate(found))))
    return EXIT_FAILS


def _load_delta(path: str) -> frozenset:
    with open(path, encoding="utf-8") as fh:
        lines = [line.split("#", 1)[0].strip() for line in fh]
    return parse_transitions(line for line in lines if line)


def cmd_wdelta(args) -> int:
    P = _load(args.components)
    decision.check_component(P)
    delta = _load_delta(args.delta)
    w = representation.build_w_delta(P, delta)
    s = w.system
    print(f"delta: {len(s.delta)}")
    print(f"s1: {len(s.s1)}  s2: {len(s.s2)}  s3: {len(s.s3)}")
    print(f"delta2: {len(s.delta2)}  delta3: {len(s.delta3)}")
    print(f"columns: {len(s.columns)}")
    print(f"wdelta-states: {len(w.automaton.states)}")
    print(f"wdelta-transitions: {len(w.automaton.delta)}")
    if args.emit:
        sys.stdout.write(serialize_automaton(w.automaton))
    return EXIT_HOLDS


def _load_segment(args) -> segments.InitialSegment:
    if args.ball is not None:
        return segments.InitialSegment.norm_ball(args.ball)
    vectors = []
    with open(args.segment, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("K ") or stripped.startswith("K\t"):
        bound = stripped.split()[1]
        if not bound.isdecimal():
            raise ParseError(f"segment bound is not a non-negative integer: {bound!r}")
        return segments.InitialSegment.norm_ball(int(bound))
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            vectors.append(parse_vector(line))
    return segments.InitialSegment.explicit(vectors)


def cmd_segments(args) -> int:
    P = _load(args.components)
    seg = _load_segment(args)
    result = segments.partial_powerset(P, seg)
    print(f"segment: {seg}")
    print(f"compatible: {str(result.compatible).lower()}")
    print(f"states: {len(result.automaton.states)}")
    if not result.compatible:
        M, a = result.witness
        print(f"witness-state: {segments._set_name(M)}")
        print(f"witness-letter: {a}")
        return EXIT_FAILS
    if args.roles:
        roles = segments.check_phi_gamma_omega(P)
        if roles is None:
            print("roles: none")
        else:
            for cls in ("phi", "gamma", "omega"):
                names = " ".join(sorted(str(x) for x in roles[cls]))
                print(f"{cls}: {names}")
    if args.emit:
        sys.stdout.write(serialize_automaton(segments.l_of_segment(P, seg)))
    return EXIT_HOLDS


def cmd_petri(args) -> int:
    P = _load(args.components)
    V = _load(args.constraint)
    decision.check_alphabets(P, V)
    if args.which == "npv":
        net, iota = petri.build_npv(P, V)
        m0 = iota((ZERO, V.initial))
    else:
        Vc = complete(V)
        net, iota = petri.build_np_v_full(P, Vc)
        m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
    print(f"places: {len(net.places)}")
    print(f"transitions: {len(net.order)}")
    if args.analyze == "km":
        km = petri.karp_miller(net, m0)
        status = "capped" if km.capped else ("bounded" if km.bounded else "unbounded")
        print(f"km: {status}")
        print(f"km-nodes: {len(km.nodes)}")
        if km.pump is not None:
            prefix, cycle = km.pump
            print(f"pump-prefix: {' ; '.join(prefix)}".rstrip())
            print("pump-cycle: " + " ; ".join(cycle))
            ok = petri.replay_pump(net, m0, km.pump)
            print(f"pump-replays: {str(ok).lower()}")
    if args.emit == "pnml":
        print(petri.to_pnml(net, m0))
    elif args.emit == "dot":
        print(petri.to_dot(net, m0))
    return EXIT_HOLDS


def cmd_family(args) -> int:
    L = _load(args.base)
    V = _load(args.constraint)
    member = scalable.build_family_member(L, V, range(1, args.size + 1))
    sys.stdout.write(serialize_automaton(member))
    if args.check:
        violation = scalable.check_self_similarity(L, V, args.size, args.maxlen)
        if violation is None:
            print(f"self-similar: true (size <= {args.size}, length <= {args.maxlen})")
            return EXIT_HOLDS
        print("self-similar: false")
        print("I: " + " ".join(str(i) for i in sorted(violation["I"])))
        print("I': " + " ".join(str(i) for i in sorted(violation["I_prime"])))
        print("word: " + " ".join(str(a) for a in violation["word"]))
        print("projection: " + " ".join(str(a) for a in violation["projection"]))
        return EXIT_FAILS
    return EXIT_HOLDS


def cmd_shuffle(args) -> int:
    P = _load(args.components)
    w = word(args.word)
    member = pre_shuffle_member(P, w) if args.prefix else shuffle_member(P, w)
    print("member" if member else "non-member")
    return EXIT_HOLDS if member else EXIT_FAILS


def cmd_replay(args) -> int:
    P = _load(args.components)
    V = _load(args.constraint)
    with open(args.report, encoding="utf-8") as fh:
        verdict = decision.parse_verdict(fh.read())
    ok = decision.replay_certificate(P, V, verdict)
    print(f"replay: {'ok' if ok else 'mismatch'}")
    return EXIT_HOLDS if ok else EXIT_ERROR


def _count(text: str) -> int:
    """A non-negative integer option value."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """A positive integer option value."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflecheck",
        description="closure of regular language pairs under one-component deletion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="run the full decision pipeline")
    p.add_argument("components")
    p.add_argument("constraint")
    p.add_argument("--mode", choices=("prefix", "general"), default="prefix")
    p.add_argument("--profile", choices=("ci", "default", "deep"))
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("falsify", help="bounded counterexample search only")
    p.add_argument("components")
    p.add_argument("constraint")
    p.add_argument("--mode", choices=("prefix", "general"), default="prefix")
    p.add_argument("--maxlen", type=_count, default=6)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("wdelta", help="column system over a transition fragment")
    p.add_argument("components")
    p.add_argument("--delta", required=True, help="file with one transition per line")
    p.add_argument("--emit", action="store_true", help="print the recognizer")
    p.set_defaults(func=cmd_wdelta)

    p = sub.add_parser("segments", help="segment compatibility check")
    p.add_argument("components")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--segment", help="file with one vector per line, or 'K n'")
    group.add_argument("--ball", type=_count, help="norm ball bound n")
    p.add_argument("--roles", action="store_true", help="print the letter-role split")
    p.add_argument("--emit", action="store_true", help="print the certified automaton")
    p.set_defaults(func=cmd_segments)

    p = sub.add_parser("petri", help="net constructions and coverability analysis")
    p.add_argument("components")
    p.add_argument("constraint")
    p.add_argument("--which", choices=("npv", "npvfull"), default="npv")
    p.add_argument("--analyze", choices=("km",))
    p.add_argument("--emit", choices=("pnml", "dot"))
    p.set_defaults(func=cmd_petri)

    p = sub.add_parser("family", help="indexed family member and stability check")
    p.add_argument("base")
    p.add_argument("constraint")
    p.add_argument("--size", type=_positive, required=True)
    p.add_argument("--maxlen", type=_count, default=8)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("shuffle", help="interleaving membership of a word")
    p.add_argument("components")
    p.add_argument("word")
    p.add_argument("--prefix", action="store_true", help="allow open components")
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("replay", help="re-validate a saved verdict report")
    p.add_argument("components")
    p.add_argument("constraint")
    p.add_argument("report")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else 0
    try:
        return args.func(args)
    except (ShufflecheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # exit 1 would read as "fails"
        traceback.print_exc()
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
