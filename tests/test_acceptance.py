"""Acceptance gate: one test per criterion, one pass/fail line each
under pytest -v."""

import random
from collections import defaultdict

from shufflecheck.automata import (
    Dfa,
    EmptyLanguage,
    Letter,
    accepts,
    complete,
    equivalent,
    grave,
    normalize,
    word,
)
from shufflecheck.decision import Budgets, decide_sp, replay_certificate
from shufflecheck.engine import (
    Computation,
    CounterVector,
    ZERO,
    engine_for,
    parse_transition,
    pre_shuffle_member,
    shuffle_member,
)
from shufflecheck.oracle import iterated_shuffle_upto
from shufflecheck.petri import (
    build_np_v_full,
    build_npv,
    build_product,
    decide_alf_pre_finite,
    decide_alf_zero_finite,
    karp_miller,
    reachable_markings,
    replay_pump,
)
from shufflecheck.representation import build_w_delta, check_closure_prefix, mu_nu_project
from shufflecheck.scalable import build_family_member, check_self_similarity
from shufflecheck.segments import InitialSegment, l_of_segment, partial_powerset
from conftest import mk_dfa, random_dfa
from net_reference import check_one_token, one_token_groups
from oracle_reference import sp_falsify, srf1


def tset(*texts):
    return frozenset(parse_transition(t) for t in texts)


def test_criterion_01_counterexample_with_replay(ring3, ring9):
    v = decide_sp(ring3, ring9, "general")
    assert v.outcome == "fails"
    assert v.certificate["word"] == word("abaa")
    assert v.certificate["factor"] == word("aa")
    assert replay_certificate(ring3, ring9, v)


def test_criterion_02_fragment_route_golden(two_start, tracker4):
    res = decide_alf_pre_finite(two_start, tracker4)
    assert res.status == "finite"
    assert len(res.states) == 4
    assert res.delta == tset(
        "(0) a (II:1) [start]",
        "(0) b (II:1) [start]",
        "(II:1) b (II:2) [start]",
        "(II:1) c (0) [end]",
        "(II:2) c (II:1) [end]",
    )
    w = build_w_delta(two_start, res.delta)
    assert len(w.system.columns) == 17
    assert len(w.automaton.delta) == 17
    out = check_closure_prefix(two_start, tracker4, res.delta)
    assert out.holds


def test_criterion_03_segment_compatibility(single_abc):
    seg = InitialSegment.explicit(
        [
            ZERO,
            CounterVector.unit("II"),
            CounterVector.unit("III"),
            CounterVector.make({"II": 1, "III": 1}),
        ]
    )
    res = partial_powerset(single_abc, seg)
    assert res.compatible
    assert len(res.automaton.states) == 4
    certified = l_of_segment(single_abc, seg)
    assert sp_falsify(grave(single_abc), certified, 6) is None


def test_criterion_04_norm_ball_chains(single_ab):
    for n in range(0, 6):
        res = partial_powerset(single_ab, InitialSegment.norm_ball(n))
        assert res.compatible
        assert len(res.automaton.states) == n + 1
        chain = mk_dfa(
            "ab",
            [(str(i), "a", str(i + 1)) for i in range(n)]
            + [(str(i + 1), "b", str(i)) for i in range(n)],
            "0",
            [str(i) for i in range(n + 1)],
        )
        L = l_of_segment(single_ab, InitialSegment.norm_ball(n))
        assert equivalent(L, chain)


def test_criterion_05_infinite_pre_finite_zero(single_ab, astar_b):
    pre = Dfa(
        astar_b.alphabet, astar_b.states, dict(astar_b.delta),
        astar_b.initial, frozenset(), "semiautomaton",
    )
    res = decide_alf_pre_finite(single_ab, pre)
    assert res.status == "infinite"
    net, iota = build_npv(single_ab, pre)
    assert replay_pump(net, iota((ZERO, astar_b.initial)), res.pump)

    zero = decide_alf_zero_finite(grave(single_ab), astar_b)
    assert zero.status == "finite"
    assert zero.delta <= tset(
        "(0) a (II:1) [start]",
        "(0) a (0) [start_end]",
        "(II:1) a (II:1) [start_end]",
        "(II:1) b (0) [end]",
    )
    assert len(zero.delta) == 4


def test_criterion_06_holds_and_self_similarity(alt):
    v = decide_sp(alt, alt, "prefix")
    assert v.outcome == "holds"
    assert check_self_similarity(alt, alt, 3, 8) is None
    m = build_family_member(alt, alt, {1, 2})
    assert len(m.states) == 3
    expected = Dfa(
        alphabet=(Letter("a", 1), Letter("b", 1), Letter("a", 2), Letter("b", 2)),
        states=frozenset("spq"),
        delta={
            ("s", Letter("a", 1)): "p",
            ("p", Letter("b", 1)): "s",
            ("s", Letter("a", 2)): "q",
            ("q", Letter("b", 2)): "s",
        },
        initial="s",
        finals=frozenset("spq"),
        kind="dfa",
    )
    assert equivalent(m, expected)


def test_criterion_07_engine_matches_oracle():
    from itertools import product as iproduct

    rng = random.Random(70707)
    checked = 0
    while checked < 100:
        P = random_dfa(rng, max_states=4, alpha="ab")
        try:
            P = normalize(P)
        except EmptyLanguage:
            continue
        eng = engine_for(P)
        members = set(iterated_shuffle_upto(P, 8))
        pre_members = set(iterated_shuffle_upto(grave(P), 8))
        for n in range(0, 9):
            for chars in iproduct("ab", repeat=n):
                w = tuple(Letter(c) for c in chars)
                assert shuffle_member(P, w) == (w in members)
                assert pre_shuffle_member(P, w) == (w in pre_members)
        # shift law: transitions from occupiable vectors are exactly the
        # non-negative shifts of the finite core
        comp = sorted(eng.component_states)
        for _ in range(5):
            f = CounterVector.make({q: rng.randint(0, 2) for q in comp})
            for a in P.alphabet:
                expected = set()
                for t in eng.core:
                    if t.letter != a:
                        continue
                    h = f.sub(t.source)
                    if h is not None:
                        expected.add(t.shift(h))
                assert eng.successors(f, a) == expected
        checked += 1


def test_criterion_08_one_deletion_fibers():
    rng = random.Random(80808)
    checked = 0
    while checked < 30:
        P = random_dfa(rng, max_states=3, alpha="ab")
        try:
            P = normalize(P)
        except EmptyLanguage:
            continue
        eng = engine_for(P)
        core = sorted(eng.core, key=str)
        if not core:
            continue
        comp = sorted(eng.component_states)
        pool = set()
        for t in core:
            pool.add(t)
            if comp:
                h = CounterVector.unit(rng.choice(comp))
                pool.add(t.shift(h))
        k = rng.randint(1, min(5, len(pool)))
        delta = frozenset(rng.sample(sorted(pool, key=str), k))

        w = build_w_delta(P, delta)
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
        while frontier:
            c = frontier.pop()
            assert by_mu.get(tuple(c), set()) == {
                tuple(u) for u in srf1(P, c)
            }
            if len(c) < 5:
                for t in delta:
                    if t.source == c.final:
                        frontier.append(Computation(tuple(c) + (t,)))
        checked += 1


def test_criterion_09_net_simulation(two_start, tracker4, single_ab):
    # bounded pair: encoded product states are exactly the net markings
    for P, V in [
        (two_start, tracker4),
        (single_ab, l_of_segment(single_ab, InitialSegment.norm_ball(2))),
    ]:
        net, iota = build_npv(P, V)
        states, _fragment, exhausted = build_product(P, V)
        assert exhausted
        seen, ex2 = reachable_markings(net, iota((ZERO, V.initial)))
        assert ex2
        assert {iota(s) for s in states} == set(seen)
        km = karp_miller(net, iota((ZERO, V.initial)))
        assert km.bounded
    # every reachable marking of the deletion net keeps one token per
    # tracked group
    V = Dfa(
        tracker4.alphabet, tracker4.states, dict(tracker4.delta),
        tracker4.initial, tracker4.states, "dfa",
    )
    Vc = complete(V)
    full, iota2 = build_np_v_full(two_start, Vc)
    m0 = iota2((Vc.initial, Vc.initial, (ZERO, ZERO)))
    groups = one_token_groups(two_start, Vc)
    sample, _ = reachable_markings(full, m0, 10_000)
    assert all(check_one_token(groups, m) for m in sample)


def test_criterion_10_pipeline_never_contradicts():
    rng = random.Random(101010)
    budgets = Budgets(falsifier_maxlen=6)
    checked = 0
    while checked < 50:
        P = random_dfa(rng, max_states=3, alpha="ab")
        V = random_dfa(rng, max_states=3, alpha="ab")
        try:
            P = normalize(P)
            V = normalize(V)
        except EmptyLanguage:
            continue
        v = decide_sp(P, V, "general", budgets)
        cex = sp_falsify(P, V, 6)
        if v.outcome == "holds":
            assert cex is None
        if v.outcome == "fails":
            assert replay_certificate(P, V, v)
        if v.outcome == "unknown":
            # unknown is only allowed when boundedness genuinely fails
            Vc = complete(V)
            net, iota = build_np_v_full(P, Vc)
            m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
            km = karp_miller(net, m0, budgets.km_node_cap)
            assert km.capped or not km.bounded
        checked += 1
