import os
import random
import re
import subprocess
import sys
from collections import Counter, deque
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from shufflecheck import engine
from shufflecheck.automata import (
    Dfa,
    EmptyLanguage,
    Letter,
    grave,
    is_prefix_closed,
    normalize,
    word,
)
from shufflecheck.decision import (
    Budgets,
    InvalidQuery,
    MalformedCertificate,
    Verdict,
    decide_sp,
    fails_certificate,
    parse_verdict,
    prepare_query,
    replay_certificate,
    serialize_verdict,
)
from shufflecheck.petri import (
    build_product,
    decide_alf_pre_finite,
    decide_alf_zero_finite,
    decide_sp_via_net,
    prefix_delta_closed,
)
from shufflecheck.representation import check_closure_zero, decode_witness
from conftest import depth_chain, mk_dfa, product_pairs, random_dfa, wide_draw


SMALL = Budgets(falsifier_maxlen=5, km_node_cap=20_000, forward_cap=50_000)


def test_budget_profiles():
    assert Budgets.profile("ci").falsifier_maxlen < Budgets().falsifier_maxlen
    assert Budgets.profile("deep").forward_cap > Budgets().forward_cap
    with pytest.raises(InvalidQuery):
        Budgets.profile("bogus")


def test_prefix_mode_requires_prefix_closed(single_ab, astar_b):
    with pytest.raises(InvalidQuery):
        decide_sp(single_ab, astar_b, "prefix")


def test_alphabet_mismatch_rejected(alt, ring3):
    with pytest.raises(InvalidQuery):
        decide_sp(alt, ring3)


def test_unknown_mode_rejected(alt):
    with pytest.raises(InvalidQuery):
        decide_sp(alt, alt, "sideways")


def test_replay_rejects_a_query_decide_rejects(alt, ring3):
    # {aa, ba} is not prefix closed, so decide refuses it in prefix mode
    two = mk_dfa("ab", [("1", "a", "2"), ("1", "b", "2"), ("2", "a", "3")], "1", ["3"])
    with pytest.raises(InvalidQuery):
        decide_sp(two, two, "prefix")
    cert = {
        "word": word("aa"), "factor": word("a"), "component": word("a"),
        "positions": (1,),
    }
    with pytest.raises(InvalidQuery):
        replay_certificate(two, two, Verdict("fails", "prefix", "falsifier", cert))
    # and a pair whose alphabets differ, whatever the verdict claims
    with pytest.raises(InvalidQuery):
        replay_certificate(alt, ring3, Verdict("unknown", "general", "net-budget"))


def test_holds_pipeline_prefix(alt):
    v = decide_sp(alt, alt, "prefix")
    assert v.outcome == "holds"
    assert replay_certificate(alt, alt, v)


def test_fails_pipeline_general(ring3, ring9):
    v = decide_sp(ring3, ring9, "general")
    assert v.outcome == "fails"
    assert v.route == "falsifier"
    assert v.certificate["word"] == word("abaa")
    assert v.certificate["factor"] == word("aa")
    assert replay_certificate(ring3, ring9, v)


def test_holds_via_fragment_route(two_start, tracker4):
    from shufflecheck.automata import Dfa

    V = Dfa(
        tracker4.alphabet, tracker4.states, dict(tracker4.delta),
        tracker4.initial, tracker4.states, "dfa",
    )
    v = decide_sp(two_start, V, "general", SMALL)
    assert v.outcome == "holds"
    assert replay_certificate(two_start, V, v)


def test_report_roundtrip(ring3, ring9):
    v = decide_sp(ring3, ring9, "general", SMALL)
    text = serialize_verdict(v)
    back = parse_verdict(text)
    assert back.outcome == v.outcome
    assert back.mode == v.mode
    assert back.route == v.route
    assert back.certificate["word"] == v.certificate["word"]
    assert back.certificate["positions"] == v.certificate["positions"]
    assert back.budgets == v.budgets
    assert replay_certificate(ring3, ring9, back)


def test_report_roundtrip_holds_delta(two_start, tracker4):
    from shufflecheck.automata import Dfa

    V = Dfa(
        tracker4.alphabet, tracker4.states, dict(tracker4.delta),
        tracker4.initial, tracker4.states, "dfa",
    )
    v = decide_sp(two_start, V, "general", SMALL)
    back = parse_verdict(serialize_verdict(v))
    assert back.certificate.get("delta") == v.certificate.get("delta")
    assert replay_certificate(two_start, V, back)


def test_falsifier_overflow_leaves_the_exact_stages_to_decide(ring3, ring9):
    # a falsifier bound of 33 overflows the oracle's length limit
    v = decide_sp(ring3, ring9, "general", replace(SMALL, falsifier_maxlen=33))
    assert v.outcome == "fails"
    assert v.route != "falsifier"
    assert replay_certificate(ring3, ring9, v)


def test_parse_verdict_budget_lines(ring3, ring9):
    text = serialize_verdict(decide_sp(ring3, ring9, "general", SMALL))
    head, _, tail = text.partition("BUDGETS:\n")
    # reports written before three unread budgets were retired still parse
    old = head + "BUDGETS:\noracle_maxlen: 8\noracle_card_cap: 200000\n" + (
        "frontier_cap: 100000\n" + tail
    )
    assert parse_verdict(old).budgets == SMALL
    with pytest.raises(MalformedCertificate):
        parse_verdict(head + "BUDGETS:\nkm_node_cap: lots\n" + tail)
    with pytest.raises(MalformedCertificate):
        parse_verdict(head + "BUDGETS:\nbogus_cap: 1\n" + tail)


def test_parse_verdict_rejects_a_bad_position(ring3, ring9):
    text = serialize_verdict(decide_sp(ring3, ring9, "general", SMALL))
    assert "\npositions: " in text
    head, _, tail = text.partition("positions: ")
    with pytest.raises(MalformedCertificate, match="bad position"):
        parse_verdict(head + "positions: 1 x\n" + tail.partition("\n")[2])


def test_parse_verdict_rejects_garbage():
    with pytest.raises(MalformedCertificate):
        parse_verdict("VERDICT: maybe\nMODE: prefix\nROUTE: x\n")
    with pytest.raises(MalformedCertificate):
        parse_verdict("VERDICT: holds\nMODE: prefix\n")
    with pytest.raises(MalformedCertificate):
        parse_verdict("VERDICT: holds\nMODE: prefix\nROUTE: r\nstray: 1\n")


def test_tampered_certificate_fails_replay(ring3, ring9):
    v = decide_sp(ring3, ring9, "general", SMALL)
    tampered = dict(v.certificate)
    tampered["factor"] = word("ab")  # still in the constraint language
    from dataclasses import replace

    assert not replay_certificate(ring3, ring9, replace(v, certificate=tampered))


def _ab(edges: str, finals: str):
    # an automaton over {a, b} from edges written "1a2 2b3", initial 1
    return mk_dfa("ab", [(e[0], e[1], e[2]) for e in edges.split()], "1", list(finals))


def _forged_fails(w: str, u: str, e: str, positions: tuple) -> Verdict:
    cert = {
        "word": word(w), "factor": word(u), "component": word(e),
        "positions": positions,
    }
    return Verdict("fails", "general", "falsifier", cert)


def test_replay_rejects_a_fails_word_outside_the_constraint():
    # a a is two components of P, and deleting one leaves a, outside V; but
    # V = b* rejects a a itself, so the word is no counterexample
    P, V = _ab("1a2 2b3 3a1", "2"), _ab("1b1", "1")
    assert decide_sp(P, V, "general").outcome == "holds"
    assert not replay_certificate(P, V, _forged_fails("aa", "a", "a", (0,)))


def test_replay_rejects_a_fails_remainder_inside_the_constraint():
    # b is one component of P, in V = b*, and deleting it leaves the empty
    # word, which V accepts, so nothing was lost
    P, V = _ab("1a1 1b2 2a2 2b1", "2"), _ab("1b1 2a2 2b2", "1")
    assert decide_sp(P, V, "general").outcome == "holds"
    assert not replay_certificate(P, V, _forged_fails("b", "", "b", (0,)))


def test_replay_rejects_a_holds_on_a_route_that_proves_fails():
    # the net route answers this failing pair with net-reachability, so a
    # holds naming that route must rerun as a holds, not just on that route
    P, V = _ab("1a1 1b1", "1"), _ab("1a2 1b1 2b3 3b1", "23")
    assert decide_sp(P, V, "general").outcome == "fails"
    rerun = decide_sp_via_net(P, V)
    assert (rerun.status, rerun.route) == ("fails", "net-reachability")
    forged = Verdict("holds", "general", "net-reachability", {})
    assert not replay_certificate(P, V, forged)


def test_random_pairs_consistent(rng):
    from shufflecheck.automata import EmptyLanguage
    from oracle_reference import sp_falsify

    checked = 0
    while checked < 15:
        P = random_dfa(rng)
        V = random_dfa(rng)
        try:
            P = normalize(P)
            V = normalize(V)
        except EmptyLanguage:
            continue
        v = decide_sp(P, V, "general", SMALL)
        cex = sp_falsify(P, V, 5)
        if v.outcome == "holds":
            assert cex is None
        if v.outcome == "fails":
            assert replay_certificate(P, V, v)
        checked += 1


@pytest.mark.parametrize(
    "p, v, mode, budgets, outcome, route",
    [
        ("ring3", "ring9", "general", SMALL, "fails", "falsifier"),
        ("single_ab", "alt", "prefix", SMALL, "holds", "prefix-fragment"),
        ("single_ab", "alt", "general", SMALL, "holds", "zero-fragment"),
        ("tracker4", "tracker4", "prefix", SMALL, "holds", "net-uncoverable"),
        ("single_abc", "ring9", "general", SMALL, "fails", "zero-fragment"),
        ("alt", "alt", "prefix", SMALL, "holds", "net-uncoverable"),
        ("alt", "alt", "general", SMALL, "holds", "net-uncoverable"),
        # three components of ab first close a violation, at length 6,
        # beyond the falsifier bound of SMALL
        ("single_ab", "mod3_a", "general", SMALL, "fails", "net-reachability"),
        # forward_cap bounds only the net route's marking BFS, so a cap of
        # one reaches neither the backward search from F (five states) nor
        # the product walked inside the backward set (two states)
        ("single_a", "b_chain", "general", replace(SMALL, forward_cap=1),
         "holds", "zero-fragment"),
    ],
    ids=lambda x: f"forward_cap={x.forward_cap}" if isinstance(x, Budgets) else None,
)
def test_route_table(request, p, v, mode, budgets, outcome, route):
    P, V = request.getfixturevalue(p), request.getfixturevalue(v)
    verdict = decide_sp(P, V, mode, budgets)
    assert (verdict.outcome, verdict.route) == (outcome, route)
    assert replay_certificate(P, V, verdict)


def _witness_shape(witness) -> tuple:
    word, remainder, component, positions = witness
    return (
        type(witness), [type(x) for x in witness],
        {type(a) for a in word + remainder + component}, {type(i) for i in positions},
    )


@pytest.mark.parametrize(
    "p, v, route",
    [("single_abc", "ring9", "zero-fragment"), ("single_ab", "mod3_a", "net-reachability")],
)
def test_every_route_gives_the_falsifiers_witness_shape(
    request, ring3, ring9, p, v, route
):
    # the closure search's columns (`decode_witness`) and the net's firing
    # (`decode_firing`) read as the falsifier's (word, remainder, component,
    # positions), and one builder makes the certificate of each
    falsified = engine.sp_falsify(*prepare_query(ring3, ring9, "general"), 6)
    assert _witness_shape(falsified) == (tuple, [tuple] * 4, {Letter}, {int})
    P, V = request.getfixturevalue(p), request.getfixturevalue(v)
    comp, Vn = prepare_query(P, V, "general")
    if route == "zero-fragment":
        delta = decide_alf_zero_finite(comp, Vn).delta
        witness = decode_witness(check_closure_zero(comp, Vn, delta).witness)
    else:
        witness = decide_sp_via_net(comp, Vn).witness
    assert _witness_shape(witness) == _witness_shape(falsified)
    cert = fails_certificate(witness)
    verdict = decide_sp(P, V, "general", SMALL)
    assert (verdict.route, verdict.certificate) == (route, cert)
    assert replay_certificate(P, V, Verdict("fails", "general", route, cert))


def _renamed(A: Dfa, old: str, new) -> Dfa:
    """A with its letter or state named old named new: a letter of symbol
    old becomes new if new is a Letter, else Letter(new)."""

    def name(x):
        if isinstance(x, Letter):
            if x.symbol != old:
                return x
            return new if isinstance(new, Letter) else Letter(new)
        return new if x == old else x

    return Dfa(
        tuple(map(name, A.alphabet)),
        frozenset(map(name, A.states)),
        {(name(q), name(a)): name(p) for (q, a), p in A.delta.items()},
        name(A.initial),
        frozenset(map(name, A.finals)),
        A.kind,
    )


@pytest.mark.parametrize(
    "old, new, name", [("a", "a(", "letter 'a('"), ("II", "q(II", "state 'q(II'")]
)
def test_unreadable_component_names_rejected(two_start, tracker4, old, new, name):
    # a report writes a step as '(f) a (g) [kind]', so a letter or a state
    # of P with whitespace or a parenthesis gives a certificate that replay
    # cannot read back; decide and replay both refuse the pair
    verdict = decide_sp(two_start, tracker4, "prefix")
    assert verdict.route == "prefix-fragment"
    P, V = _renamed(two_start, old, new), _renamed(tracker4, old, new)
    with pytest.raises(InvalidQuery, match=re.escape(name)):
        decide_sp(P, V, "prefix")
    for v in (verdict, parse_verdict(serialize_verdict(verdict))):
        with pytest.raises(InvalidQuery, match=re.escape(name)):
            replay_certificate(P, V, v)


@pytest.mark.parametrize(
    "old, new, name",
    [
        ("a", Letter("a", None, "checked"), "letter '^a' is a checked letter"),
        ("a", 1, "letter '1' cannot be read back"),
        ("a", "a@2", "letter 'a@2' cannot be read back"),
        ("a", "^a", "letter '^a' cannot be read back"),
        ("II", 2, "state 2 cannot be read back"),
    ],
)
def test_component_names_that_do_not_read_back_rejected(
    single_abc, ring9, old, new, name
):
    # a report reads "1" and "a@2" as other letters than Letter(1) and
    # Letter("a@2"), and "^a" as the checked copy of a, which track 3 keeps
    # apart from P's letters; a state must be a string.  Decide and replay
    # both refuse the pair, at any budget
    verdict = decide_sp(single_abc, ring9, "general")
    P, V = _renamed(single_abc, old, new), _renamed(ring9, old, new)
    for budgets in (Budgets(), Budgets(falsifier_maxlen=0)):
        with pytest.raises(InvalidQuery, match=re.escape(name)):
            decide_sp(P, V, "general", budgets)
    for v in (verdict, parse_verdict(serialize_verdict(verdict))):
        with pytest.raises(InvalidQuery, match=re.escape(name)):
            replay_certificate(P, V, v)


# Names a report may misread: whitespace and parentheses, texts that parse
# as another letter, letters that sort at "| " or after, and non-strings.
HOSTILE_LETTERS = (
    Letter("("), Letter("a b"), Letter("^a"), Letter("a@2"), Letter("|"),
    Letter("~"), Letter("é"), Letter(1), Letter("a", 2), Letter("a", None, "checked"),
    Letter("a"), Letter("b"),
)
HOSTILE_STATES = ("(", "a b", "^a", "a@2", "|", "~", "é", 2, "q", "r", "s")


def test_decide_and_the_report_agree_on_names():
    # a pair with hostile names is refused, or its verdict replays from
    # its own report as it does in memory
    rng = random.Random(40)
    refused = replayed = 0
    for _ in range(400):
        P, V = wide_draw(rng)
        letters = dict(zip(P.alphabet, rng.sample(HOSTILE_LETTERS, len(P.alphabet))))
        states = dict(zip(sorted(P.states), rng.sample(HOSTILE_STATES, len(P.states))))

        def name(x):
            return letters[x] if isinstance(x, Letter) else states.get(x, x)

        P = Dfa(
            tuple(map(name, P.alphabet)), frozenset(map(name, P.states)),
            {(name(q), name(a)): name(p) for (q, a), p in P.delta.items()},
            name(P.initial), frozenset(map(name, P.finals)), P.kind,
        )
        V = Dfa(
            tuple(map(name, V.alphabet)), V.states,
            {(q, name(a)): p for (q, a), p in V.delta.items()},
            V.initial, V.finals, V.kind,
        )
        try:
            verdict = decide_sp(P, V, "general", Budgets(falsifier_maxlen=0))
        except EmptyLanguage:
            continue
        except InvalidQuery:
            refused += 1
            continue
        assert replay_certificate(P, V, verdict), (P, V)
        report = parse_verdict(serialize_verdict(verdict))
        assert replay_certificate(P, V, report), (P, V)
        replayed += 1
    assert refused > 200 and replayed > 20


@pytest.mark.parametrize("maxlen, note", [(33, "overflow"), (6, None)])
def test_falsifier_overflow_is_reported(ring3, ring9, maxlen, note):
    v = decide_sp(ring3, ring9, "general", replace(SMALL, falsifier_maxlen=maxlen))
    assert v.stats.get("falsifier") == note
    assert parse_verdict(serialize_verdict(v)).stats == {
        k: str(x) for k, x in v.stats.items()
    }


def test_falsifier_stage_calls_the_module_global(ring3, ring9, monkeypatch):
    # the benchmark tracer wraps decision.sp_falsify; the stage must look
    # that name up at call time
    from shufflecheck import decision

    calls = []
    real = decision.sp_falsify

    def spy(P, V, maxlen):
        calls.append(maxlen)
        return real(P, V, maxlen)

    monkeypatch.setattr(decision, "sp_falsify", spy)
    v = decide_sp(ring3, ring9, "general", SMALL)
    assert calls == [SMALL.falsifier_maxlen]
    assert v.route == "falsifier"


@pytest.mark.parametrize("mode", ["prefix", "general"])
def test_forged_prefix_fragment_rejected(ring3, ring9, mode):
    # (ring3, ring9) fails at abaa; one start step is no closed fragment,
    # and general mode never settles a pair by the prefix route
    forged = Verdict(
        "holds", mode, "prefix-fragment", {"delta": ("(0) a (2:1) [start]",)}
    )
    assert not replay_certificate(ring3, ring9, forged)


@pytest.mark.xfail(
    strict=True,
    reason="B4: replay does not yet check that a zero-fragment delta covers "
    "the pair (ROADMAP item 1)",
)
@pytest.mark.parametrize("delta", [(), ("(0) a (2:1) [start]",)], ids=["empty", "one-step"])
@pytest.mark.parametrize("mode", ["prefix", "general"])
def test_forged_zero_fragment_rejected(ring3, ring9, mode, delta):
    # (ring3, ring9) fails at abaa, so no zero-fragment Holds may replay
    forged = Verdict("holds", mode, "zero-fragment", {"delta": delta})
    assert not replay_certificate(ring3, ring9, forged)


def _balance_mod_4():
    # #a - #b is 0 modulo 4
    return mk_dfa(
        "ab",
        [(str(i), "a", str((i + 1) % 4)) for i in range(4)]
        + [(str(i), "b", str((i - 1) % 4)) for i in range(4)],
        "0",
        ["0"],
    )


def test_replay_checks_the_route_of_a_holds_without_delta(single_ab):
    # the net route proves the pair and names net-uncoverable; the same
    # empty certificate under a route that is no fragment route of general
    # mode is forged.  Under zero-fragment it reads as a zero-fragment
    # holds with an empty delta, whose coverage replay does not yet check
    # (B4, ROADMAP item 1)
    V = _balance_mod_4()
    v = decide_sp(single_ab, V, "general")
    assert (v.outcome, v.route, v.certificate) == ("holds", "net-uncoverable", {})
    assert replay_certificate(single_ab, V, v)
    for route in ("falsifier", "prefix-fragment", "net-reachability", "made-up"):
        assert replay_certificate(single_ab, V, replace(v, route=route)) is False, route


@pytest.mark.parametrize(
    "mode, route", [("prefix", "prefix-fragment"), ("general", "zero-fragment")]
)
def test_fragment_holds_with_empty_delta_replays_from_its_report(mode, route):
    # P reads only the empty word, so the fragment is empty and the report
    # writes no delta line; the parsed verdict still replays on its route
    P = mk_dfa("ab", [], "I", ["I"])
    V = mk_dfa("ab", [("1", "a", "1")], "1", ["1"])  # a*
    v = decide_sp(P, V, mode)
    assert (v.outcome, v.route, v.certificate) == ("holds", route, {"delta": ()})
    parsed = parse_verdict(serialize_verdict(v))
    assert parsed.route == route and parsed.certificate == {}
    assert replay_certificate(P, V, parsed)


def test_replay_rejects_a_fails_word_with_a_foreign_letter(single_ab):
    c = word("c")
    forged = Verdict(
        "fails", "general", "falsifier",
        {"word": c, "factor": (), "component": c, "positions": (0,)},
    )
    assert replay_certificate(single_ab, _balance_mod_4(), forged) is False


@pytest.mark.parametrize(
    "line", ["(0) a (1:1) [bogus]", "(0) a (1:\u00b2)", "x (0) a (1:1)"]
)
def test_replay_rejects_an_unreadable_delta_line(single_ab, line):
    forged = Verdict("holds", "general", "zero-fragment", {"delta": (line,)})
    with pytest.raises(MalformedCertificate, match="bad"):
        replay_certificate(single_ab, depth_chain(3), forged)


def test_prefix_fragment_missing_a_step_rejected(single_ab):
    V = depth_chain(4)
    v = decide_sp(single_ab, V, "prefix", SMALL)
    assert v.route == "prefix-fragment"
    assert replay_certificate(single_ab, V, v)
    lines = v.certificate["delta"]
    for i in range(len(lines)):
        cut = replace(v, certificate={"delta": lines[:i] + lines[i + 1:]})
        assert not replay_certificate(single_ab, V, cut), lines[i]


@pytest.mark.parametrize(
    "mode, route", [("prefix", "prefix-fragment"), ("general", "zero-fragment")]
)
def test_fragment_with_an_invalid_step_rejected(single_ab, alt, mode, route):
    # {ab} never opens a component on b; the genuine certificate replays,
    # and the same one with that step added does not
    v = decide_sp(single_ab, alt, mode, SMALL)
    assert v.route == route
    assert replay_certificate(single_ab, alt, v)
    forged = v.certificate["delta"] + ("(0) b (II:1) [start]",)
    assert not replay_certificate(single_ab, alt, replace(v, certificate={"delta": forged}))


@pytest.mark.parametrize(
    "mode, route", [("prefix", "prefix-fragment"), ("general", "zero-fragment")]
)
def test_decide_and_replay_check_the_fragment_steps(single_ab, alt, monkeypatch, mode, route):
    # the closure search builds its move table through the checked step
    # table, in decide and in replay alike; replay still rejects an invalid
    # step
    from shufflecheck import representation

    real = representation._deletion_moves
    built = []

    def spy(P, delta):
        built.append(sorted(t.tagged_str() for t in delta))
        return real(P, delta)

    monkeypatch.setattr(representation, "_deletion_moves", spy)
    v = decide_sp(single_ab, alt, mode, SMALL)
    lines = sorted(v.certificate["delta"])
    assert v.route == route and built == [lines]
    assert replay_certificate(single_ab, alt, v)
    assert built == [lines, lines]
    forged = v.certificate["delta"] + ("(0) b (II:1) [start]",)
    assert not replay_certificate(single_ab, alt, replace(v, certificate={"delta": forged}))
    assert len(built) == 3


@pytest.mark.parametrize("mode", ["prefix", "general"])
def test_fragment_with_a_foreign_letter_rejected(single_ab, mode):
    # {ab} never reads zz: the step is invalid, not an error
    forged = Verdict(
        "holds", mode, "zero-fragment", {"delta": ("(0) zz (0) [start_end]",)}
    )
    assert replay_certificate(single_ab, depth_chain(3), forged) is False


@pytest.mark.parametrize("mode", ["prefix", "general"])
def test_step_out_of_a_state_no_component_occupies_replays(single_ab, mode):
    # a component at I, the initial state, would move on a, so the step is
    # valid though no component occupies I; the prefix route's closedness
    # check rejects it, and the zero route's closure search over it holds,
    # which replay accepts until it checks a zero-fragment delta's
    # coverage (B4)
    delta = ("(I:1) a (II:1) [inner]",)
    for route, replayed in (("prefix-fragment", False), ("zero-fragment", True)):
        forged = Verdict("holds", mode, route, {"delta": delta})
        assert replay_certificate(single_ab, depth_chain(3), forged) is replayed


def _reference_delta_closed(comp, V, delta) -> bool:
    """prefix_delta_closed without a step table: the engine builds a
    vector's steps again for every V-state the vector meets."""
    eng = engine.engine_for(comp)
    start = (engine.ZERO, V.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        f, r = queue.popleft()
        for a in comp.alphabet:
            s = V.delta.get((r, a))
            if s is None:
                continue
            for t in eng.successors(f, a):
                if t not in delta:
                    return False
                nxt = (t.target, s)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return True


def _without_least_step(delta) -> frozenset:
    return delta - {min(delta, key=lambda t: (str(t), t.kind), default=None)}


def test_delta_closure_walk_builds_each_step_set_once(single_ab, successor_calls):
    # ab's vectors on the depth-14 chain meet up to 15 V-states each
    comp, V = grave(normalize(single_ab)), normalize(depth_chain(14))
    delta = decide_alf_pre_finite(comp, V).delta
    successor_calls.clear()
    assert _reference_delta_closed(comp, V, delta)
    rebuilt = sum(successor_calls.values())
    successor_calls.clear()
    assert prefix_delta_closed(comp, V, delta)
    assert max(successor_calls.values()) == 1
    assert 3 * sum(successor_calls.values()) < rebuilt


def test_delta_closure_walk_matches_the_table_free_walk():
    # on the first 300 criterion-10 pairs in both modes, the fragment of
    # each product walk cut at 60 states, and that fragment less a step
    outcomes = []
    for comp, V in product_pairs(300):
        delta = build_product(comp, V, 60)[1]
        for fragment in (delta, _without_least_step(delta)):
            closed = prefix_delta_closed(comp, V, fragment)
            assert closed is _reference_delta_closed(comp, V, fragment)
            outcomes.append(closed)
    assert len(outcomes) == 1200 and 100 < sum(outcomes) < 1100


def _criterion_10_draw(n):
    # the n-th (0-based) pair of the criterion-10 draw sequence
    rng = random.Random(101010)
    for _ in range(n + 1):
        P = random_dfa(rng, max_states=3, alpha="ab")
        V = random_dfa(rng, max_states=3, alpha="ab")
    return P, V


def test_draw_808_fails_by_net_reachability():
    # the 808th criterion-10 draw fails beyond the falsifier's bound; the
    # Karp–Miller tree stops at its first node covering a counterexample
    # marking, and the marking BFS finds one
    P, V = _criterion_10_draw(808)
    v = decide_sp(P, V, "general")
    assert (v.outcome, v.route) == ("fails", "net-reachability")
    assert v.stats == {"km_nodes": 30, "km_capped": False, "markings": 276}
    assert replay_certificate(P, V, v)


def test_draw_169_holds_by_karp_miller():
    # a counterexample's control state is live in draw 169's deletion net,
    # so the control check does not settle it; the whole Karp–Miller tree
    # covers no counterexample marking
    P, V = _criterion_10_draw(169)
    v = decide_sp(P, V, "general")
    assert (v.outcome, v.route) == ("holds", "net-uncoverable")
    assert v.stats == {"km_nodes": 45, "km_capped": False}
    assert replay_certificate(P, V, v)


def test_replay_builds_no_automaton_after_decide(monkeypatch):
    # the first 100 criterion-10 pairs, normalized once as the benchmark's
    # set-up does, in both modes where V is prefix closed: decide_sp keeps
    # the forms it derives on P and V, so replaying its verdict on the same
    # objects builds no Dfa
    built = []
    real = Dfa.__post_init__

    def spy(self):
        built.append(self.kind)
        real(self)

    monkeypatch.setattr(Dfa, "__post_init__", spy)
    # nor, after a falsifier Fails, a packed step table: the falsifier
    # walks the word table that replay's membership checks read
    tables = []
    real_steps = engine.ShuffleEngine.packed_steps

    def steps_spy(self, a, width):
        tables.append(a)
        return real_steps(self, a, width)

    monkeypatch.setattr(engine.ShuffleEngine, "packed_steps", steps_spy)
    rng = random.Random(101010)
    modes = []
    for _ in range(100):
        P = random_dfa(rng, max_states=3, alpha="ab")
        V = random_dfa(rng, max_states=3, alpha="ab")
        try:
            P, V = normalize(P), normalize(V)
        except EmptyLanguage:
            continue
        for mode in ("prefix", "general") if is_prefix_closed(V) else ("general",):
            v = decide_sp(P, V, mode)
            built.clear()
            tables.clear()
            assert replay_certificate(P, V, v)
            assert built == []
            if v.route == "falsifier":
                assert tables == []
            modes.append((mode, v.route))
    assert {"prefix", "general"} <= {mode for mode, _ in modes}
    assert {"falsifier", "net-uncoverable"} <= {route for _, route in modes}


def test_control_check_holds_without_building_the_net(monkeypatch):
    # V reads every word, so the pair holds; no control state of its
    # deletion net has a rejecting remainder.  A search of that net would
    # run Karp–Miller to its node cap and the marking BFS to its forward
    # cap, and answer Unknown.
    from shufflecheck import decision, petri

    P = mk_dfa(
        "abc",
        [("1", "a", "2"), ("1", "b", "3"), ("1", "c", "1"), ("2", "a", "2"),
         ("2", "b", "3"), ("3", "a", "1"), ("3", "b", "2"), ("3", "c", "3")],
        "1",
        ["2"],
    )
    V = mk_dfa(
        "abc",
        [("1", "a", "2"), ("1", "b", "1"), ("1", "c", "1"),
         ("2", "a", "1"), ("2", "b", "2"), ("2", "c", "1")],
        "1",
        [],
        kind="semiautomaton",
    )
    # the zero-fragment stage runs Karp–Miller on its own net; only calls
    # made by the net stage count
    net_calls, searched = [], []
    real_net = decision.decide_sp_via_net

    def net_stage(*args):
        net_calls.append(None)
        searched.append(None)
        try:
            return real_net(*args)
        finally:
            searched.pop()

    def spy(name):
        real = getattr(petri, name)

        def call(*args, **kwargs):
            assert not searched, f"the net stage called {name}"
            return real(*args, **kwargs)

        monkeypatch.setattr(petri, name, call)

    for name in ("build_np_v_full", "karp_miller", "marking_bfs"):
        spy(name)
    monkeypatch.setattr(decision, "decide_sp_via_net", net_stage)
    v = decide_sp(P, V, "general")
    assert (v.outcome, v.route) == ("holds", "net-uncoverable")
    assert v.certificate == {}
    assert v.stats == {"controls": 18}
    assert replay_certificate(P, V, v)
    assert len(net_calls) == 2


def test_semiautomaton_constraint_violation_beyond_the_falsifier(
    single_letter, a7b_prefixes
):
    # every state of a semiautomaton accepts: the zero-fragment stage must
    # root its backward search at all of them
    v = decide_sp(single_letter, a7b_prefixes, "general")
    assert (v.outcome, v.route) == ("fails", "zero-fragment")
    assert v.certificate["word"] == word("aaaaaaab")
    assert v.certificate["factor"] == word("aaaaaab")
    assert replay_certificate(single_letter, a7b_prefixes, v)


def test_semiautomaton_decides_as_its_all_final_dfa():
    # a prefix-closed V decides the same whether it is written as a dfa
    # with every state final or as a semiautomaton; without the falsifier
    # the exact stages alone must agree
    rng = random.Random(101010)
    budgets = Budgets(falsifier_maxlen=0)
    compared = 0
    for _ in range(300):
        P = random_dfa(rng, max_states=3, alpha="ab")
        V = random_dfa(rng, max_states=3, alpha="ab")
        try:
            P, V = normalize(P), normalize(V)
        except EmptyLanguage:
            continue
        if not is_prefix_closed(V):
            continue
        semi = Dfa(V.alphabet, V.states, dict(V.delta), V.initial, frozenset(),
                   "semiautomaton")
        for mode in ("prefix", "general"):
            expected = decide_sp(P, V, mode, budgets).outcome
            assert decide_sp(P, semi, mode, budgets).outcome == expected
            compared += 1
    assert compared == 302


def test_exact_stages_against_the_falsifier_on_wide_draws():
    # without the falsifier's cover, no Holds of the exact stages may meet
    # a violation the bounded falsifier finds, and every Holds and Fails
    # certificate replays; wide draws, in both modes where V is prefix
    # closed
    rng = random.Random(17)
    budgets = Budgets(falsifier_maxlen=0)
    outcomes = {"holds": 0, "fails": 0, "unknown": 0}
    for _ in range(300):
        P, V = wide_draw(rng)
        try:
            P, V = normalize(P), normalize(V)
        except EmptyLanguage:
            continue
        for mode in ("prefix", "general") if V.finals == V.states else ("general",):
            v = decide_sp(P, V, mode, budgets)
            outcomes[v.outcome] += 1
            if v.outcome == "holds":
                comp = grave(P) if mode == "prefix" else P
                assert engine.sp_falsify(comp, V, 6) is None, (P, V, mode)
            if v.outcome != "unknown":
                assert replay_certificate(P, V, v), (P, V, mode)
    assert outcomes["holds"] > 200 and outcomes["fails"] > 50


# The exact routes, by the decision stage that runs each.
EXACT_ROUTES = {
    "prefix-fragment": "_prefix_fragment",
    "zero-fragment": "_zero_fragment",
    "net": "_net",
}


def _cross_route_check(draws: int) -> tuple:
    """(disagreements, unreplayed, settled together) over the first
    `draws` of seed 7's wide draws: every exact route that applies runs on
    each decision, in general mode and, where V is prefix closed, in
    prefix mode, where the prefix route applies too.  A route settles a
    decision when it answers Holds or Fails.  Each settled answer is
    replayed as a verdict of its own."""
    from shufflecheck import decision
    from shufflecheck.decision import prepare_query

    rng = random.Random(7)
    disagree, unreplayed, together = [], [], Counter()
    for i in range(draws):
        P, V = wide_draw(rng)
        try:
            P, V = normalize(P), normalize(V)
        except EmptyLanguage:
            continue
        for mode in ("prefix", "general") if V.finals == V.states else ("general",):
            comp, Vn = prepare_query(P, V, mode)
            settled = {}
            for route, stage in EXACT_ROUTES.items():
                if route == "prefix-fragment" and mode != "prefix":
                    continue
                found = getattr(decision, stage)(comp, Vn, SMALL, {})
                if found is not None and found[0] != "unknown":
                    settled[route] = found
            if len({found[0] for found in settled.values()}) > 1:
                disagree.append((i, mode, {r: f[0] for r, f in settled.items()}))
            for route, (outcome, name, cert, stats) in settled.items():
                verdict = Verdict(outcome, mode, name, cert, SMALL, stats)
                try:
                    ok = replay_certificate(P, V, verdict)
                except MalformedCertificate:
                    ok = False
                if not ok:
                    unreplayed.append((i, mode, route))
            together.update(combinations(sorted(settled), 2))
    return disagree, unreplayed, together


def test_exact_routes_agree_on_wide_draws():
    # the pipeline stops at the first route that settles, so a wrong
    # answer from a later route would show only where the earlier ones
    # leave the pair open; here every route runs on every decision
    disagree, unreplayed, together = _cross_route_check(600)
    assert disagree == [] and unreplayed == []
    assert set(together) == {
        ("net", "prefix-fragment"),
        ("net", "zero-fragment"),
        ("prefix-fragment", "zero-fragment"),
    }


@pytest.mark.parametrize("route", sorted(EXACT_ROUTES))
def test_cross_route_check_sees_a_flipped_route(monkeypatch, route):
    from shufflecheck import decision

    real = getattr(decision, EXACT_ROUTES[route])

    def flipped(*args):
        found = real(*args)
        if found is None or found[0] == "unknown":
            return found
        outcome, name, cert, stats = found
        return ("fails" if outcome == "holds" else "holds"), name, cert, stats

    monkeypatch.setattr(decision, EXACT_ROUTES[route], flipped)
    disagree, unreplayed, _ = _cross_route_check(100)
    assert disagree and unreplayed


# Decides the first 150 criterion-10 draws in general mode and ab against
# depth chains in prefix mode, in the order given by argv[1], and prints
# every report in draw order.
REPORTS = """
import random
import sys
from shufflecheck.automata import EmptyLanguage, normalize
from shufflecheck.decision import decide_sp, serialize_verdict
from conftest import depth_chain, random_dfa, mk_dfa

rng = random.Random(101010)
pairs = []
for _ in range(150):
    P = random_dfa(rng, max_states=3, alpha="ab")
    V = random_dfa(rng, max_states=3, alpha="ab")
    try:
        pairs.append((normalize(P), normalize(V), "general"))
    except EmptyLanguage:
        continue
ab = mk_dfa("ab", [("I", "a", "II"), ("II", "b", "III")], "I", ["III"])
pairs += [(ab, depth_chain(n), "prefix") for n in range(14, 19)]
order = range(len(pairs))
if sys.argv[1] == "backward":
    order = reversed(order)
reports = {i: serialize_verdict(decide_sp(*pairs[i])) for i in order}
print("\\n".join(reports[i] for i in sorted(reports)))
"""


def test_reports_do_not_depend_on_hash_seed_or_addresses():
    # vectors and steps hash by identity, so set order follows memory
    # addresses; no report may depend on it or on string hashing, so two
    # processes that differ in both must print the same reports
    import shufflecheck

    path = os.pathsep.join(
        [str(Path(shufflecheck.__file__).parents[1]), str(Path(__file__).parent)]
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", REPORTS, order],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed, order in (("1", "forward"), ("2", "backward"))
    ]
    assert runs[0].count("VERDICT:") > 100
    assert runs[0].count("ROUTE: prefix-fragment") >= 5
    assert runs[0] == runs[1]
