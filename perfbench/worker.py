"""One measured pass of one workload, in a fresh interpreter.

Usage (normally started by run.py):

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds T | --count N | --setup-only) [--trace-dir DIR]

The pass imports shufflecheck from the checkout's ``src``, generates and
parses its inputs (the timed set-up), decides one warm-up pair outside the
corpus, then feeds pairs to ``decide_sp`` and ``replay_certificate`` one
at a time in schedule order.  ``--seconds T`` decides the longest prefix
of the schedule whose cost recorded at the baseline commit is at most T,
so every run of a seed does the same work however fast the machine or the
program is; at the baseline that takes about T seconds.  ``--count N``
decides the first N pairs.  A pass that runs past WALL_LIMIT_S stops
early and says so (``truncated``, with the ``planned`` and ``attempted``
pair counts); run.py then reports the run as not correct, because it did
other work than planned.  No pair is decided twice, so the program's
module-level caches only ever hold what earlier, different pairs left
there.

Between pairs, and after set-up, the pass times a fixed reference loop
(``reference_s``).  The times it reports are scaled by that loop's time to
a machine of fixed speed (``to_reference``); the raw wall-clock times are
reported beside them as ``wall_*``.  It prints one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# A pass stops after this long; run.py fits two such passes in its limit.
WALL_LIMIT_S = 80.0

# The reference loop is timed before a pair whenever this long has passed
# since it was last timed, and once after the last pair.
REF_EVERY_S = 0.2
# Reported times are scaled to a machine on which the reference loop takes
# this long, about its time on the 2-vCPU machine the notes describe.
REF_NOMINAL_S = 0.004


def reference_s() -> float:
    """Time of a fixed pure-Python loop, about 4 ms: the machine's speed now.

    The measurement machine runs the same code up to 1.6 times faster at
    one time than at another, in stretches of seconds to minutes, with its
    CPU time equal to its wall time.  A pair's time divided by the loop's
    time around it cancels that drift (see NOTES.md).
    """
    t0 = time.perf_counter()
    table = {}
    total = 0
    for i in range(20000):
        table[i % 1000] = i
        total += table.get(i % 777, 0)
    return time.perf_counter() - t0


def to_reference(samples: list, at: list, ref: list) -> list:
    """Scale samples[k], taken at pair at[k], to REF_NOMINAL_S.

    `ref` holds (pair index, loop time) in index order, its first entry at
    pair 0.  Each sample is divided by the median of the five loop timings
    around its pair and multiplied by REF_NOMINAL_S.
    """
    marks = [n for n, _ in ref]
    secs = [t for _, t in ref]
    out = []
    for t, n in zip(samples, at):
        j = bisect.bisect_right(marks, n) - 1
        out.append(t * REF_NOMINAL_S / statistics.median(secs[max(0, j - 2) : j + 3]))
    return out


class MissingProgram(Exception):
    pass


def import_program():
    if not (SRC / "shufflecheck" / "__init__.py").is_file():
        raise MissingProgram(f"no shufflecheck package under {SRC}")
    sys.path.insert(0, str(SRC))
    import shufflecheck

    if Path(shufflecheck.__file__).resolve().parent != SRC / "shufflecheck":
        raise MissingProgram(f"imported shufflecheck from {shufflecheck.__file__}")
    return shufflecheck


def expected_path(workload: str) -> Path:
    return HERE / "expected" / f"{workload}.json"


def load_expected(workload: str) -> dict:
    return json.loads(expected_path(workload).read_text())


def cert_digest(certificate: dict) -> str:
    """Short stable digest of a verdict's certificate."""
    canon = {k: [str(x) for x in v] for k, v in sorted(certificate.items())}
    return hashlib.sha1(json.dumps(canon, sort_keys=True).encode()).hexdigest()[:12]


def build_corpus(sc, workload: str, expected: dict) -> dict:
    """id -> (P, V, mode, expected outcome), parsed and normalized."""
    parse, normalize = sc.automata.parse_automaton, sc.automata.normalize
    return {
        pid: (normalize(parse(p)), normalize(parse(v)), mode, outcome)
        for pid, (p, v, mode, outcome) in workloads.family(workload, expected).items()
    }


def run_pairs(sc, corpus, expected, order, budgets, tracer=None):
    decision = sc.decision
    rec = expected["pairs"]
    decide_s, replay_s, replay_at, routes, failures = [], [], [], Counter(), []
    outcomes = Counter()
    route_changed = cert_changed = 0
    ref = []
    clock = time.perf_counter
    start = last_ref = clock()
    truncated = False
    for n, pid in enumerate(order):
        if clock() - start >= WALL_LIMIT_S:
            truncated = True
            break
        if not ref or clock() - last_ref >= REF_EVERY_S:
            ref.append((n, reference_s()))
            last_ref = clock()
        if tracer is not None:
            tracer.pair_id = n
        P, V, mode, want = corpus[pid]
        t0 = clock()
        try:
            verdict = decision.decide_sp(P, V, mode, budgets)
            t1 = clock()
            replayed = decision.replay_certificate(P, V, verdict)
            t2 = clock()
        except Exception as exc:  # a raising pair is a failed pair
            decide_s.append(clock() - t0)
            failures.append(f"{pid}: raised {type(exc).__name__}: {exc}")
            continue
        decide_s.append(t1 - t0)
        replay_s.append(t2 - t1)
        replay_at.append(n)
        outcomes[verdict.outcome] += 1
        routes[verdict.route] += 1
        if verdict.outcome != want:
            failures.append(f"{pid}: outcome {verdict.outcome}, expected {want}")
        elif not replayed:
            failures.append(f"{pid}: replay rejected the certificate")
        route_changed += verdict.route != rec[pid]["route"]
        cert_changed += cert_digest(verdict.certificate) != rec[pid]["cert"]
    ref.append((len(decide_s), reference_s()))
    return {
        "planned": len(order),
        "attempted": len(decide_s),
        "truncated": truncated,
        "failed": len(failures),
        "failures": failures[:20],
        "decide_s": to_reference(decide_s, range(len(decide_s)), ref),
        "replay_s": to_reference(replay_s, replay_at, ref),
        "wall_decide_s": decide_s,
        "wall_replay_s": replay_s,
        "speed": REF_NOMINAL_S / statistics.median(t for _, t in ref),
        "outcomes": dict(outcomes),
        "routes": dict(routes),
        "route_changed": route_changed,
        "cert_changed": cert_changed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--count", type=int)
    group.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-dir", type=Path)
    args = ap.parse_args(argv)

    try:
        sc = import_program()
    except MissingProgram as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    expected = load_expected(args.workload)
    corpus = build_corpus(sc, args.workload, expected)
    setup_s = time.perf_counter() - T_START
    setup_ref = statistics.median(reference_s() for _ in range(5))
    result = {"setup_s": setup_s * REF_NOMINAL_S / setup_ref, "wall_setup_s": setup_s}
    if not args.setup_only:
        # Pinned explicitly: SP_BUDGET_PROFILE must not change the numbers.
        budgets = sc.decision.Budgets()
        rec = expected["pairs"]
        order = workloads.schedule(rec, args.seed)
        if args.seconds is not None:
            spent = list(itertools.accumulate(rec[pid]["cost_s"] for pid in order))
            order = order[: max(1, bisect.bisect_right(spent, args.seconds))]
        else:
            order = order[: args.count]
        wp, wv, wmode = workloads.WARMUP
        parse = sc.automata.parse_automaton
        warm_p, warm_v = parse(wp), parse(wv)
        try:
            sc.decision.replay_certificate(
                warm_p, warm_v, sc.decision.decide_sp(warm_p, warm_v, wmode, budgets)
            )
        except Exception as exc:  # the measured pairs count the failures
            result["warmup_error"] = f"{type(exc).__name__}: {exc}"
        tracer = None
        if args.trace_dir is not None:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(sc)
        result.update(run_pairs(sc, corpus, expected, order, budgets, tracer))
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.write(args.trace_dir)
        result["budgets"] = asdict(budgets)
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
