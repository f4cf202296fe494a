import random
from collections import defaultdict

import pytest

from shufflecheck.automata import EmptyLanguage, grave, normalize
from shufflecheck.engine import (
    Computation,
    CounterVector,
    ShuffleTransition,
    ZERO,
    engine_for,
    parse_transition,
)
from shufflecheck.oracle import srf1
from shufflecheck.petri import decide_alf_pre_finite
from shufflecheck.representation import (
    CHECK_ZERO,
    NotSubsetOfShuffle,
    PreconditionUnverified,
    TrackLetter,
    build_delta_paren,
    build_w_delta,
    check_closure_prefix,
    check_closure_zero,
    compute_s_sets,
    decode_witness,
    grave_transfer,
    mu_nu_project,
)
from conftest import depth_chain, mk_dfa, random_dfa


FRAGMENT = frozenset(
    parse_transition(t)
    for t in [
        "(0) a (II:1) [start]",
        "(0) b (II:1) [start]",
        "(II:1) b (II:2) [start]",
        "(II:1) c (0) [end]",
        "(II:2) c (II:1) [end]",
    ]
)


def vec(**counts):
    return CounterVector.make(counts)


def test_s_sets_golden(two_start):
    s1, s2, s3 = compute_s_sets(two_start, FRAGMENT)
    assert s1 == frozenset([ZERO, vec(II=1), vec(II=2)])
    assert s2 == frozenset([ZERO, vec(II=1), vec(II=2)])
    assert s3 == frozenset([ZERO, vec(II=1)])


def test_s_sets_reject_invalid_fragment(two_start):
    bad = FRAGMENT | {parse_transition("(0) c (II:1) [start]")}
    with pytest.raises(NotSubsetOfShuffle):
        compute_s_sets(two_start, bad)


def test_delta_paren_golden(two_start):
    system = build_delta_paren(two_start, FRAGMENT)
    assert len(system.delta2) == 6
    assert len(system.delta3) == 3
    assert len(system.columns) == 17


def test_column_validation(two_start):
    x1 = parse_transition("(II:1) b (II:2) [start]")
    x2 = parse_transition("(0) b (II:1) [start]")
    col = TrackLetter(x1, x2, vec(II=1))
    assert not col.track3_active
    with pytest.raises(ValueError):
        TrackLetter(x1, x2, ZERO)  # counters no longer add up
    with pytest.raises(ValueError):
        TrackLetter(x1, vec(II=1), vec(II=1))  # no active decomposition


def test_w_delta_golden(two_start):
    w = build_w_delta(two_start, FRAGMENT)
    assert len(w.automaton.delta) == 17
    # deterministic by construction; initial state all-zero
    assert w.decode[w.automaton.initial] == (ZERO, ZERO, ZERO)
    # the deleted-component sentinel appears as a third-track state
    assert any(s[2] is CHECK_ZERO for s in w.decode.values())


def test_w_delta_tracks_compose(two_start):
    w = build_w_delta(two_start, FRAGMENT)
    # walk every length-<=4 path; both projections must be computations
    # and their running counters must add up to track 1
    def walk(state, cols, depth):
        mu, nu = mu_nu_project(cols)
        Computation(mu)
        Computation(nu)
        if depth == 0:
            return
        for a in w.automaton.alphabet:
            nxt = w.automaton.delta.get((state, a))
            if nxt is not None:
                walk(nxt, cols + (a.symbol,), depth - 1)

    walk(w.automaton.initial, (), 4)


def test_decode_witness_positions(two_start):
    w = build_w_delta(two_start, FRAGMENT)
    # find a path using at least one checked column
    def find(state, cols, depth):
        if any(c.track3_active for c in cols):
            return cols
        if depth == 0:
            return None
        for a in w.automaton.alphabet:
            nxt = w.automaton.delta.get((state, a))
            if nxt is not None:
                got = find(nxt, cols + (a.symbol,), depth - 1)
                if got is not None:
                    return got
        return None

    cols = find(w.automaton.initial, (), 3)
    assert cols is not None
    d = decode_witness(cols)
    assert len(d["word"]) == len(cols)
    assert len(d["component"]) == len(d["positions"])
    assert tuple(d["word"][i] for i in d["positions"]) == d["component"]
    rest = tuple(a for i, a in enumerate(d["word"]) if i not in set(d["positions"]))
    assert rest == d["remainder"]


def test_one_deletion_equality_on_fragment(two_start):
    # the recognizer's fiber over a composite computation must equal the
    # brute-force one-deletion set, for every fragment computation
    w = build_w_delta(two_start, FRAGMENT)
    by_mu = defaultdict(set)

    def walk(state, cols, depth):
        mu, nu = mu_nu_project(cols)
        by_mu[tuple(mu)].add(tuple(nu))
        if depth == 0:
            return
        for a in w.automaton.alphabet:
            nxt = w.automaton.delta.get((state, a))
            if nxt is not None:
                walk(nxt, cols + (a.symbol,), depth - 1)

    walk(w.automaton.initial, (), 5)

    frontier = [Computation(())]
    count = 0
    while frontier:
        c = frontier.pop()
        expected = {tuple(u) for u in srf1(two_start, c)}
        assert by_mu.get(tuple(c), set()) == expected
        count += 1
        if len(c) < 5:
            for t in FRAGMENT:
                if t.source == c.final:
                    frontier.append(Computation(tuple(c) + (t,)))
    assert count > 20


def test_closure_checks_require_coverage_flag(two_start, tracker4):
    with pytest.raises(PreconditionUnverified):
        check_closure_prefix(two_start, tracker4, FRAGMENT)
    with pytest.raises(PreconditionUnverified):
        check_closure_zero(two_start, tracker4, FRAGMENT)


def test_closure_prefix_golden(two_start, tracker4):
    out = check_closure_prefix(
        two_start, tracker4, FRAGMENT, coverage_established=True
    )
    assert out.holds


def test_closure_detects_violation(single_ab, astar_b):
    # composite aab is accepted, the remainder b after deleting the
    # component is not
    eng = engine_for(single_ab)
    delta = frozenset(
        t
        for f in eng.reachable_vectors(2)
        for t in eng.all_successors(f)
        if t.target.norm <= 2
    )
    out = check_closure_zero(
        single_ab, astar_b, delta, coverage_established=True
    )
    assert not out.holds
    d = decode_witness(out.witness)
    assert len(d["component"]) > 0


def test_grave_transfer_downward_closed(two_start):
    moved = grave_transfer(two_start, FRAGMENT)
    vectors = {t.source for t in moved} | {t.target for t in moved}
    for f in vectors:
        for g in f.decrements():
            assert g in vectors
    # the grave automaton admits extra closings at every state
    assert len(moved) >= len(FRAGMENT)


def test_closure_search_golden(single_ab, astar_b):
    # the search's visiting order fixes the witness and the state count
    eng = engine_for(single_ab)
    delta = frozenset(
        t
        for f in eng.reachable_vectors(2)
        for t in eng.all_successors(f)
        if t.target.norm <= 2
    )
    out = check_closure_zero(
        single_ab, astar_b, delta, coverage_established=True
    )
    assert tuple(str(c) for c in out.witness) == (
        "[(0) a (II:1) | (0) | (0) ^a (II:1)]",
        "[(II:1) b (0) | (0) | (II:1) ^b (0)]",
    )
    assert out.states_explored == 12


def test_closure_prefix_depth_chain_golden(single_ab):
    comp, V = grave(normalize(single_ab)), normalize(depth_chain(14))
    alf = decide_alf_pre_finite(comp, V)
    assert alf.status == "finite"
    w = build_w_delta(comp, alf.delta)
    assert len(w.automaton.states) == 44
    assert len(w.automaton.delta) == 165
    out = check_closure_prefix(comp, V, alf.delta, coverage_established=True)
    assert out.holds
    assert out.states_explored == 719
