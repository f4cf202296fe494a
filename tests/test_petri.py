import random
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from operator import ge
from pathlib import Path

import pytest

from shufflecheck.automata import Dfa, EmptyLanguage, Letter, complete, grave, normalize
from shufflecheck.engine import (
    CHECK_ZERO,
    START,
    ZERO,
    count_width,
    elementary_vector_states,
    engine_for,
    parse_transition,
    sp_falsify,
    step_order,
    walk_table,
)
from shufflecheck import petri
from shufflecheck.decision import (
    Budgets,
    decide_sp,
    fails_certificate,
    parse_verdict,
    prepare_query,
    replay_certificate,
    serialize_verdict,
)
from shufflecheck.petri import (
    CHECK_PLACE,
    _ep,
    _live_controls,
    _target_controls,
    build_np_v_full,
    build_npv,
    build_product,
    decide_alf_pre_finite,
    decide_alf_zero_finite,
    decide_sp_via_net,
    enabled_step,
    karp_miller,
    marking_bfs,
    reachable_markings,
    replay_pump,
    to_dot,
    to_pnml,
)
from conftest import depth_chain, mk_dfa, product_pairs, random_dfa, unpacked, wide_draw
import km_reference
import net_reference
from net_reference import (
    check_one_token,
    decode_firing,
    fired,
    firing_path,
    one_token_groups,
    reversed_net,
)


GOLDEN = Path(__file__).parent / "golden"


def tset(*texts):
    return frozenset(parse_transition(t) for t in texts)


def _covered(km, target):
    # does some node of the tree cover the dense marking target?
    return any(all(map(ge, n.marking, target)) for n in km.nodes)


def test_npv_structure(two_start, tracker4):
    net, iota = build_npv(two_start, tracker4)
    assert len(net.places) == 3 + 4
    # core has 3 entries; the tracker admits a on 1 only, b on 1/2/3, c on 2/3/4
    assert len(net.order) == 1 + 3 + 3
    m0 = iota((ZERO, "1"))
    assert m0.get("V::1") == 1 and m0.norm == 1


def test_npv_simulation_equality(two_start, tracker4):
    # markings reachable in the net are exactly the encoded product states
    net, iota = build_npv(two_start, tracker4)
    states, _fragment, exhausted = unpacked(build_product(two_start, tracker4))
    assert exhausted
    seen, ex2 = reachable_markings(net, iota((ZERO, "1")))
    assert ex2
    assert {iota(s) for s in states} == set(seen)


def test_pre_route_finite_golden(two_start, tracker4):
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


def test_forward_cap_does_not_reach_the_prefix_walk(two_start, tracker4):
    # the product has four states; forward_cap bounds only the net route's
    # marking BFS, so a cap of one leaves the walk to km_node_cap
    v = decide_sp(two_start, tracker4, "prefix", Budgets(forward_cap=1))
    assert (v.outcome, v.route) == ("holds", "prefix-fragment")
    assert replay_certificate(two_start, tracker4, v)
    assert replay_certificate(
        two_start, tracker4, parse_verdict(serialize_verdict(v))
    )


def test_build_product_builds_each_step_set_once(single_ab, successor_calls):
    # ab's vectors on the depth-14 chain meet up to 15 V-states each; the
    # reference builds their steps again at each, the packed walk makes
    # no step object at all
    comp, V = grave(normalize(single_ab)), normalize(depth_chain(14))
    expected = net_reference.product_walk(comp, V, 500_000)
    assert sum(successor_calls.values()) > 100
    successor_calls.clear()
    got = build_product(comp, V)
    assert not successor_calls
    assert unpacked(got) == expected


def _small(comp):
    """keep for packed walks of 60 states on comp: the vector's norm is
    at most 2."""
    layout, _steps = walk_table(comp, count_width(61))
    return lambda state: sum(n for _q, n in layout.entries(state[0])) <= 2


def _small_vector(state) -> bool:
    return state[0].norm <= 2


def test_build_product_matches_the_table_free_walk():
    # kept to norm 2, every walk ends; unkept, a cap of 60 states cuts the
    # infinite products.  A cut walk stops inside a step set, so only its
    # size is fixed.
    exhausted = 0
    for comp, V in product_pairs(300):
        got = build_product(comp, V, 60, _small(comp))
        expected = net_reference.product_walk(comp, V, 60, _small_vector)
        assert got[2] and unpacked(got) == expected
        got = build_product(comp, V, 60)
        expected = net_reference.product_walk(comp, V, 60)
        if got[2]:
            assert unpacked(got) == expected
            exhausted += 1
        else:
            assert (len(got[0]), expected[2]) == (61, False)
    assert 150 < exhausted < 300


def test_pre_route_infinite_with_replayable_pump(single_ab, astar_b):
    pre = mk_dfa(
        "ab",
        [("1", "a", "1"), ("1", "b", "2")],
        "1",
        [],
        kind="semiautomaton",
    )
    res = decide_alf_pre_finite(single_ab, pre)
    assert res.status == "infinite"
    assert res.pump is not None
    net, iota = build_npv(single_ab, pre)
    assert replay_pump(net, iota((ZERO, "1")), res.pump)


def test_zero_route_finite_golden(single_ab, astar_b):
    res = decide_alf_zero_finite(grave(single_ab), astar_b)
    assert res.status == "finite"
    assert res.delta == tset(
        "(0) a (II:1) [start]",
        "(0) a (0) [start_end]",
        "(II:1) a (II:1) [start_end]",
        "(II:1) b (0) [end]",
    )


def test_zero_route_budgets(single_a, b_chain):
    # node_cap bounds the backward set as a whole, in states kept: the part
    # of it that reaches F alone has five states
    assert decide_alf_zero_finite(single_a, b_chain, node_cap=4).status == "unknown"


def test_pre_route_node_cap_bounds_the_walk(two_start, tracker4):
    # the walk keeps the product's four states, so a cap of two stops it
    res = decide_alf_pre_finite(two_start, tracker4, node_cap=2)
    assert res.status == "unknown"


def _route_cases():
    # (composite, V) of the first 300 criterion-10 pairs in both modes, and
    # of the wide draws with seeds 7 and 13 in both modes where V is prefix
    # closed
    yield from product_pairs(300)
    for seed, n, alpha in ((7, 3, "abc"), (13, 4, "ab")):
        rng = random.Random(seed)
        for _ in range(1500):
            P, V = wide_draw(rng, n, alpha)
            try:
                P, V = normalize(P), normalize(V)
            except EmptyLanguage:
                continue
            if V.finals == V.states:
                yield grave(P), V
            yield P, V


def test_fragment_routes_match_the_net_reference():
    # each route answers as Karp–Miller on the product net does, with the
    # same fragment and states; an infinite prefix answer's pump fires on
    # that net, and a finite one's walk keeps as many states as the tree
    # had nodes
    answers = set()
    for comp, V in _route_cases():
        got = decide_alf_pre_finite(comp, V)
        ref = net_reference.decide_alf_pre_finite(comp, V)
        assert got.status == ref.status, (comp, V)
        assert (got.delta, got.states) == (ref.delta, ref.states)
        if got.status == "finite":
            assert got.stats == {"product_states": ref.stats["km_nodes"]}
            assert ref.stats["km_nodes"] == ref.stats["product_states"]
        if got.status == "infinite":
            net, iota = build_npv(comp, V)
            assert replay_pump(net, iota((ZERO, V.initial)), got.pump)
        answers.add(("pre", got.status))
        got = decide_alf_zero_finite(comp, V)
        ref = net_reference.decide_alf_zero_finite(comp, V)
        assert got.status == ref.status, (comp, V)
        assert (got.delta, got.states) == (ref.delta, ref.states)
        answers.add(("zero", got.status))
    assert answers == {
        ("pre", "finite"), ("pre", "infinite"), ("zero", "finite"), ("zero", "unknown"),
    }


def test_prefix_route_pump_follows_the_pair_alone():
    # the walk meets each step set sorted by value (`engine.step_order`), not
    # in the memory order of the steps and vectors it builds: a second run
    # over the same pairs, with thousands of other vectors alive so that
    # its objects sit at other addresses, meets the same pumps and keeps
    # the same states
    from shufflecheck.engine import CounterVector

    cases = list(_route_cases())

    def answers():
        return [
            (res.status, res.pump, res.stats)
            for res in (decide_alf_pre_finite(comp, V) for comp, V in cases)
        ]

    first = answers()
    churn = [CounterVector(((f"churn{i}", 1),)) for i in range(5000)]
    assert answers() == first
    assert churn and sum(status == "infinite" for status, *_ in first) > 1000


def test_fragment_routes_build_no_net(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a fragment route built a net or a tree")

    for name in ("build_npv", "karp_miller", "PetriNet"):
        monkeypatch.setattr(petri, name, refuse)
    statuses = set()
    for comp, V in product_pairs(300):
        statuses.add(decide_alf_pre_finite(comp, V).status)
        statuses.add(decide_alf_zero_finite(comp, V).status)
    assert statuses == {"finite", "infinite", "unknown"}


def test_km_bounded_on_finite_net(two_start, tracker4):
    net, iota = build_npv(two_start, tracker4)
    km = karp_miller(net, iota((ZERO, "1")))
    assert km.bounded and not km.capped
    assert km.pump is None


def test_km_acceleration_marks_unbounded(single_ab):
    pre = mk_dfa("ab", [("1", "a", "1"), ("1", "b", "2")], "1", [], "semiautomaton")
    net, iota = build_npv(single_ab, pre)
    km = karp_miller(net, iota((ZERO, "1")))
    assert not km.bounded
    assert any(n.accelerated for n in km.nodes)


def _word(w):
    states = [f"p{i}" for i in range(len(w) + 1)]
    return mk_dfa(
        "ab", [(states[i], a, states[i + 1]) for i, a in enumerate(w)],
        states[0], [states[-1]],
    )


def _modular(k, step_a, step_b):
    # counts #a * step_a + #b * step_b modulo k, accepting residue 0
    states = [f"r{i}" for i in range(k)]
    trans = []
    for i in range(k):
        trans.append((states[i], "a", states[(i + step_a) % k]))
        trans.append((states[i], "b", states[(i + step_b) % k]))
    return mk_dfa("ab", trans, states[0], [states[0]])


def _full_net(P, V):
    Vc = complete(V)
    net, iota = build_np_v_full(P, Vc)
    return net, iota((Vc.initial, Vc.initial, (ZERO, ZERO)))


def _km_shape(net, m0):
    km = karp_miller(net, m0)
    # a pump must fire concretely from m0 and strictly grow
    assert km.pump is None or replay_pump(net, m0, km.pump)
    return (len(km.nodes), km.bounded, km.capped, km.pump)


def test_km_tree_golden(single_ab, ring3, ring9):
    # node count, flags and pump pin the tree shape and the ω arithmetic
    pre = mk_dfa("ab", [("1", "a", "1"), ("1", "b", "2")], "1", [], "semiautomaton")
    net, iota = build_npv(single_ab, pre)
    a_start = "start|(0) a (II:1)|1"
    assert _km_shape(net, iota((ZERO, "1"))) == (
        3, False, False, ((), (a_start,)),
    )
    assert _km_shape(*_full_net(ring3, ring9)) == (
        3348, False, False,
        (
            ("S|start_end|(0) a (0)|1,1", "S|start_end|(0) a (0)|2,2"),
            ("S|start|(0) a (2:1)|_sink,_sink",),
        ),
    )
    cycle = tuple(f"S|start|(0) a (p1:1)|r{i},r{i}" for i in range(5))
    pump = ((), cycle)
    assert _km_shape(*_full_net(_word("ab"), _modular(5, 1, 0))) == (
        60, False, False, pump,
    )
    assert _km_shape(*_full_net(_word("ab"), _modular(5, 1, -1))) == (
        30, False, False, pump,
    )


def test_km_accelerates_on_strict_domination():
    # t: p -> p + q; the first firing already strictly dominates the root
    from shufflecheck.engine import CounterVector
    from shufflecheck.petri import OMEGA, PetriNet

    vec = CounterVector.make
    net = PetriNet(
        frozenset({"p", "q"}),
        {"t": {"p": 1}},
        {"t": {"p": 1, "q": 1}},
        {},
        ("t",),
    )
    km = karp_miller(net, vec({"p": 1}))
    assert [n.marking for n in km.nodes] == [(1, 0), (1, OMEGA)]
    assert not km.bounded and km.pump == ((), ("t",))
    assert replay_pump(net, vec({"p": 1}), km.pump)


def test_km_agrees_with_marking_bfs_on_random_nets():
    # the full deletion nets of the first 100 criterion-10 pairs
    rng = random.Random(101010)
    checked = 0
    while checked < 100:
        P = random_dfa(rng, max_states=3, alpha="ab")
        V = random_dfa(rng, max_states=3, alpha="ab")
        try:
            P, V = normalize(P), normalize(V)
        except EmptyLanguage:
            continue
        net, m0 = _full_net(P, V)
        packed, exhausted = marking_bfs(net, net.marking(m0), 2000)
        seen = [net.unpack(m) for m in packed]
        km = karp_miller(net, m0, node_cap=20_000)
        markings = {n.marking for n in km.nodes}
        if exhausted:
            assert km.bounded and not km.capped
            assert markings == set(seen)
        elif not km.bounded and not km.capped:
            assert replay_pump(net, m0, km.pump)
        assert all(m in markings or _covered(km, m) for m in seen)
        checked += 1


def _criterion_10_pairs(count):
    # the first `count` criterion-10 pairs, normalized, with V completed
    rng = random.Random(101010)
    while count:
        P = random_dfa(rng, max_states=3, alpha="ab")
        V = random_dfa(rng, max_states=3, alpha="ab")
        try:
            P, V = normalize(P), normalize(V)
        except EmptyLanguage:
            continue
        yield P, complete(V)
        count -= 1


def _counterexample_targets(net, iota, Vc, counters=(ZERO, CHECK_ZERO)):
    # the markings that decide_sp_via_net looks for; counters gives the
    # counter part of iota's state
    return [
        net.marking(iota((qf, qn, counters)))
        for qf in sorted(Vc.finals)
        for qn in sorted(set(Vc.states) - set(Vc.finals))
    ]


def _packed(net, markings):
    # dense markings packed, as karp_miller and marking_bfs take stop_at
    return frozenset(net.pack(m) for m in markings)


def _assert_stopped_at_first_cover(early, full, targets, project=lambda m: m):
    # early, a tree stopped at its targets' group values, is full, a tree
    # built without stop_at, cut after its first node that covers one of
    # the dense markings targets, full's markings projected onto early's
    # places; says whether full covers one
    first = next(
        (
            k for k, n in enumerate(full.nodes)
            if any(all(map(ge, n.marking, t)) for t in targets)
        ),
        None,
    )
    if first is None:
        assert _km_tree(early) == _km_tree(full, project)
        return False
    nodes, pump, _, capped, stopped = _km_tree(early)
    assert stopped and not capped
    assert nodes == _km_tree(full, project)[0][: first + 1]
    # the pump is kept once found, so the cut tree has full's or none yet
    assert pump in (None, full.pump)
    return True


def _criterion_10_full_nets(count):
    # the full deletion nets of the first `count` criterion-10 pairs, with
    # the counterexample markings that decide_sp_via_net looks for
    for P, Vc in _criterion_10_pairs(count):
        net, iota = build_np_v_full(P, Vc)
        targets = _counterexample_targets(net, iota, Vc)
        yield net, iota((Vc.initial, Vc.initial, (ZERO, ZERO))), targets


def test_km_stops_at_the_first_covering_node():
    # the deletion net's tree stopped at the counterexample markings is the
    # tree of the same net with one field per place, built without
    # stop_at, cut after its first node that covers one
    stops = 0
    for net, m0, targets in _criterion_10_full_nets(100):
        full = karp_miller(net_reference.ungrouped(net), m0, node_cap=20_000)
        early = karp_miller(net, m0, node_cap=20_000, stop_at=_packed(net, targets))
        if _assert_stopped_at_first_cover(early, full, targets):
            stops += 1
            assert any(_covered(early, t) for t in targets)
    assert 0 < stops < 100
    # t moves the group's token from p to q and adds one to the counter c:
    # a root that covers a target is the whole tree, and a target at q
    # stops the tree at its second node
    from shufflecheck.engine import CounterVector
    from shufflecheck.petri import PetriNet

    net = PetriNet(
        {"c", "p", "q"}, {"t": {"p": 1}}, {"t": {"q": 1, "c": 1}}, {}, ("t",),
        [("p", "q")],
    )
    m0 = CounterVector.make({"p": 1})
    for target, nodes in (((0, 1, 0), [(0, 1, 0)]), ((0, 0, 1), [(0, 1, 0), (1, 0, 1)])):
        km = karp_miller(net, m0, stop_at=_packed(net, [target]))
        assert km.stopped and [n.marking for n in km.nodes] == nodes
        _assert_km_matches_reference(net, m0, [target])


def test_km_targets_hold_no_counter_token():
    # Karp–Miller stops at group values alone, so a target with a token on
    # a counter place is refused, on a net with groups and on one without
    from shufflecheck.engine import CounterVector
    from shufflecheck.petri import PetriNet

    pre, post = {"t": {"p": 1}}, {"t": {"q": 1, "c": 1}}
    m0 = CounterVector.make({"p": 1})
    grouped = PetriNet({"c", "p", "q"}, pre, post, {}, ("t",), [("p", "q")])
    flat = PetriNet({"c", "p", "q"}, pre, post, {}, ("t",))
    for net, target in ((grouped, (1, 0, 1)), (flat, (0, 1, 0))):
        with pytest.raises(ValueError, match="counter token"):
            karp_miller(net, m0, stop_at=_packed(net, [(0, 1, 0), target]))


def _km_tree(km, project=lambda m: m):
    # everything a tree holds, each node's marking projected and its
    # parent given by its index
    index = {id(n): k for k, n in enumerate(km.nodes)}
    nodes = [
        (
            project(n.marking), n.via, n.accelerated,
            None if n.parent is None else index[id(n.parent)],
        )
        for n in km.nodes
    ]
    return nodes, km.pump, km.bounded, km.capped, km.stopped


def _assert_km_matches_reference(net, m0, stop_at=(), node_cap=20_000):
    # stop_at holds dense markings, which the reference takes as they are
    packed = karp_miller(net, m0, node_cap, stop_at=_packed(net, stop_at))
    dense = km_reference.karp_miller(net, m0, node_cap, stop_at=stop_at)
    assert _km_tree(packed) == _km_tree(dense)
    return packed


def test_km_matches_the_dense_reference():
    # the tree on packed markings equals the dense-tuple one node for node
    for (net, m0, targets), (P, Vc) in zip(
        _criterion_10_full_nets(100), _criterion_10_pairs(100)
    ):
        _assert_km_matches_reference(net, m0)
        _assert_km_matches_reference(net, m0, targets)
        forward, iota = build_npv(P, Vc)
        _assert_km_matches_reference(forward, iota((ZERO, Vc.initial)))
        # the backward net, which decide_alf_zero_finite searches from
        # each accepting closure, is the forward one with arcs reversed
        backward = reversed_net(forward)
        assert (backward.places, backward.order) == (forward.places, forward.order)
        assert (backward.pre, backward.post) == (forward.post, forward.pre)
        for qf in sorted(Vc.finals):
            _assert_km_matches_reference(backward, iota((ZERO, qf)))


def _named_bfs(net, m0, project=lambda m: m):
    # marking_bfs's parent map, with each marking unpacked and projected
    # and the transition fired to keep it (`petri.fired`) by name
    seen, exhausted = marking_bfs(net, net.marking(m0), 2000)
    named = [
        (
            project(net.unpack(m)),
            None if prev is None else project(net.unpack(prev)),
            None if prev is None else net.order[fired(net, prev, m)],
        )
        for m, prev in seen.items()
    ]
    return named, exhausted


def _grouped_cases():
    # (comp, complete V, BFS cap): the first 100 criterion-10 pairs, P and
    # grave(P), and ab, aab and abb against a count of a and of b mod 5, 9
    # and 14, whose BFS reaches a counterexample within 20,000 markings
    cases = [
        (comp, Vc, 1000)
        for P, Vc in _criterion_10_pairs(100)
        for comp in (P, grave(P))
    ]
    cases += [
        (_word(w), complete(_modular(k, step_a, 1 - step_a)), 20_000)
        for w in ("ab", "aab", "abb")
        for k in (5, 9, 14)
        for step_a in (1, 0)
    ]
    return cases


def _bfs_form(net, seen, exhausted):
    # a marking_bfs result with each marking unpacked, and the transition
    # fired to keep it (`petri.fired`) by position and by name
    return _recorded_bfs_form(net, {
        m: (prev, None if prev is None else fired(net, prev, m))
        for m, prev in seen.items()
    }, exhausted)


def _recorded_bfs_form(net, seen, exhausted):
    # the same of net_reference.marking_bfs's map, which records each
    # marking's (parent, transition position)
    return [
        (
            net.unpack(m),
            None if prev is None else net.unpack(prev),
            j,
            None if j is None else net.order[j],
        )
        for m, (prev, j) in seen.items()
    ], exhausted


def _km_walks(net, km):
    # (children that skipped the ancestor walk, children that walked,
    # accelerated children), over the children the tree kept: a child
    # that skipped added its group value's bit to its parent's path mask
    skipped = walked = accelerated = 0
    for node in km.nodes[1:]:
        # the parent's mask, and at most one bit more
        extra = node.path_mask ^ node.parent.path_mask
        assert not extra & node.parent.path_mask and not extra & (extra - 1)
        if node.path_mask == node.parent.path_mask:
            walked += 1
            accelerated += node.accelerated
            continue
        skipped += 1
        assert not node.accelerated
        # no ancestor has the child's group value, so none could be
        # dominated by it
        value, anc = node.key & net.group_mask, node.parent
        while anc is not None:
            assert anc.key & net.group_mask != value
            anc = anc.parent
    return skipped, walked, accelerated


def test_grouped_net_searches_as_one_field_per_place():
    # the deletion net packs its V1, V2 and tracked groups as one small
    # field each; rebuilt with one field per place it must give the same
    # Karp–Miller tree node for node.  Stopped at the counterexample
    # markings, the net's tree must be that tree cut after its first node
    # that covers one, and the dense reference's tree too.  The marking BFS
    # towards them must be the same, with each marking's transition
    # recovered as the reference BFS records it
    stopped = reached = exhausted = 0
    walks = [0, 0, 0]
    for comp, Vc, cap in _grouped_cases():
        net, iota = build_np_v_full(comp, Vc)
        flat = net_reference.ungrouped(net)
        assert len(net.groups) == 3 and not flat.groups
        assert (flat.places, flat.order, flat.pre, flat.post) == (
            net.places, net.order, net.pre, net.post,
        )
        m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
        targets = _counterexample_targets(net, iota, Vc)
        full = karp_miller(net, m0, node_cap=3000)
        flat_full = karp_miller(flat, m0, node_cap=3000)
        assert _km_tree(full) == _km_tree(flat_full)
        km = karp_miller(net, m0, node_cap=3000, stop_at=_packed(net, targets))
        stopped += _assert_stopped_at_first_cover(km, flat_full, targets)
        for tree in (full, km):
            walks = [n + k for n, k in zip(walks, _km_walks(net, tree))]
        # the tree the net route builds, against the dense reference too
        _assert_km_matches_reference(net, m0, targets, node_cap=3000)
        found = []
        for n in (net, flat):
            start, goals = n.marking(m0), _packed(n, targets)
            seen, done = marking_bfs(n, start, cap, goals)
            recorded, ref_done = net_reference.marking_bfs(n, start, cap, goals)
            found.append(_bfs_form(n, seen, done))
            assert found[-1] == _recorded_bfs_form(n, recorded, ref_done)
            for hit in goals & seen.keys():
                assert firing_path(n, seen, hit) == net_reference.recorded_path(
                    recorded, hit
                )
        assert found[0] == found[1]
        goals = {tuple(t) for t in targets}
        reached += any(m in goals for m, *_ in found[0][0])
        exhausted += found[0][1]
    assert stopped and reached and exhausted
    # children that skip the walk and children that walk both occur, and
    # some of the walkers accelerate
    skipped, walked, accelerated = walks
    assert skipped and walked and accelerated
    # the decision on the largest of them, pinned
    v = decide_sp(_word("abb"), _modular(14, 1, 0), "general")
    assert (v.outcome, v.route) == ("fails", "net-reachability")
    assert v.stats == {"norm_level": 1, "norm_length": 42, "markings": 2240}


def test_km_path_mask_bits_may_stand_for_several_values(monkeypatch):
    # with two bits in a path mask, most group values share one; a child
    # whose bit an ancestor of another value set only walks the tree for
    # nothing, and the trees stay the reference's node for node
    monkeypatch.setattr(petri, "PATH_BITS", 2)
    shared = 0
    for w in ("ab", "abb"):
        Vc = complete(_modular(9, 1, 0))
        net, iota = build_np_v_full(_word(w), Vc)
        m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
        targets = _counterexample_targets(net, iota, Vc)
        for stop_at in ((), targets):
            km = _assert_km_matches_reference(net, m0, stop_at, node_cap=3000)
            _km_walks(net, km)  # its checks of the masks hold with shared bits
            for node in km.nodes[1:]:
                value, anc = node.key & net.group_mask, node.parent
                while anc is not None and anc.key & net.group_mask != value:
                    anc = anc.parent
                shared += anc is None and node.path_mask == node.parent.path_mask
    assert shared


def test_petri_net_checks_its_groups():
    from shufflecheck.petri import FIELD, PetriNet

    places, groups = {"c", "p", "q"}, [("p", "q")]
    # a transition that puts a token into the group without taking one,
    # one that takes two, and one that takes one and puts none back
    for pre, post in (
        ({"c": 1}, {"p": 1}),
        ({"p": 1, "q": 1}, {"p": 1}),
        ({"p": 1}, {"c": 1}),
    ):
        with pytest.raises(ValueError, match="take one token"):
            PetriNet(places, {"t": pre}, {"t": post}, {}, ("t",), groups)
    for bad in ([("p", "q"), ("q",)], [()]):
        with pytest.raises(ValueError, match="disjoint"):
            PetriNet(places, {"t": {}}, {"t": {}}, {}, ("t",), bad)
    # t moves the group's token from p to q and adds one to the counter c
    net = PetriNet(
        places, {"t": {"p": 1}}, {"t": {"q": 1, "c": 1}}, {}, ("t",), groups
    )
    # places in sorted order are c, p, q: c's field is bits 0 to FIELD, and
    # the group's two-bit field above it holds 1 for p and 2 for q
    assert net.pack((3, 1, 0)) == 3 | 1 << FIELD
    assert net.pack((3, 0, 1)) == 3 | 2 << FIELD
    for m in ((0, 0, 0), (3, 1, 0), (7, 0, 1)):
        assert net.unpack(net.pack(m)) == m
    for m in ((0, 1, 1), (0, 2, 0)):
        with pytest.raises(ValueError, match="more than one token"):
            net.pack(m)
    seen, exhausted = marking_bfs(net, (0, 1, 0))
    assert exhausted and [net.unpack(m) for m in seen] == [(0, 1, 0), (1, 0, 1)]
    # without groups every place keeps a FIELD-bit count, in place order
    flat = PetriNet(places, {"t": {"p": 1}}, {"t": {"q": 1, "c": 1}}, {}, ("t",))
    rng = random.Random(5)
    for _ in range(50):
        m = tuple(rng.choice((0, 1, 2, 2**31 - 1)) for _ in range(3))
        packed = sum(n << (FIELD * i) for i, n in enumerate(m))
        assert flat.pack(m) == packed and flat.unpack(packed) == m


def _named_arcs(net, arcs):
    # one pre- or post-set by place name, less any arc on a Q1:: place
    return {net.places[i] for i in arcs if not net.places[i].startswith("Q1::")}


def _control_check_settles(comp, Vc):
    # does the deletion net's control search find no counterexample's
    # control, so that decide_sp_via_net answers before building the net?
    return not _target_controls(Vc, _live_controls(Vc, engine_for(comp).core))


def test_deletion_net_keeps_every_transition_a_run_can_fire():
    # the deletion net against the three-track reference net with every
    # transition: the first 100 criterion-10 pairs, P and grave(P) against
    # complete V, and ab, aab, abb against a count of a mod 5
    cases = [
        (comp, Vc) for P, Vc in _criterion_10_pairs(100) for comp in (P, grave(P))
    ]
    cases += [(_word(w), complete(_modular(5, 1, 0))) for w in ("ab", "aab", "abb")]
    kept = total = uncovered = 0
    for comp, Vc in cases:
        net, iota = build_np_v_full(comp, Vc)
        ref, ref_iota = net_reference.build_np_v_full(comp, Vc)
        assert net.places == tuple(p for p in ref.places if not p.startswith("Q1::"))
        # an order-preserving subset of the reference's transitions, each
        # with the reference's meta and its arcs less those on Q1:: places
        position = {t: k for k, t in enumerate(ref.order)}
        at = [position[t] for t in net.order]
        assert at == sorted(at)
        for j, k in enumerate(at):
            for arcs, ref_arcs in ((net.pre, ref.pre), (net.post, ref.post)):
                assert _named_arcs(net, arcs[j]) == _named_arcs(ref, ref_arcs[k])
            assert net.meta[net.order[j]] == ref.meta[ref.order[k]]
        kept, total = kept + len(net.order), total + len(ref.order)
        # every search from the initial marking sees the same markings once
        # the reference's are projected onto the net's places
        keep = [ref.index[p] for p in net.places]

        def project(m):
            return tuple([m[i] for i in keep])

        m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
        r0 = ref_iota((Vc.initial, Vc.initial, (ZERO, ZERO, ZERO)))
        targets = _counterexample_targets(net, iota, Vc)
        ref_targets = _counterexample_targets(ref, ref_iota, Vc, (ZERO, ZERO, "check"))
        ref_km = karp_miller(ref, r0, node_cap=20_000)
        assert _km_tree(karp_miller(net, m0, node_cap=20_000)) == _km_tree(
            ref_km, project
        )
        # stopped at the counterexample markings, the net's tree is the
        # reference's cut after its first node that covers one
        km = karp_miller(net, m0, node_cap=20_000, stop_at=_packed(net, targets))
        covered = _assert_stopped_at_first_cover(km, ref_km, ref_targets, project)
        # a net whose control search finds no counterexample's control
        # covers no counterexample marking
        if _control_check_settles(comp, Vc):
            uncovered += 1
            assert not covered
        assert _named_bfs(net, m0) == _named_bfs(ref, r0, project)
        # the composite's counters are the remainder's plus the tracked
        # component's vector in every marking the reference reaches
        tracked = {CHECK_PLACE: ZERO}
        tracked.update((_ep(v), v) for v in elementary_vector_states(comp))
        seen, _ = marking_bfs(ref, ref.marking(r0), 2000)
        for packed in seen:
            m = dict(zip(ref.places, ref.unpack(packed)))
            (f,) = [v for p, v in tracked.items() if m[p]]
            for q in comp.states:
                assert m[f"Q1::{q}"] == m[f"Q2::{q}"] + f.get(q)
    assert kept < total
    assert uncovered


def test_live_targets_search_as_every_counterexample_marking(monkeypatch):
    # decide_sp_via_net's targets, one per live counterexample control,
    # give the Karp–Miller tree and the marking BFS map that the full
    # final x nonfinal list gives the dense reference and the reference
    # BFS: the first 100 criterion-10 pairs, P and grave(P) against
    # complete V, and ab, aab, abb against a count of a mod 5.  The
    # decision's witness search takes the (V1-state, V2-state) of each;
    # the spy packs them as iota packs a counterexample marking.  Its
    # Karp–Miller tree is held to the net's by
    # test_karp_miller_on_the_deletion_moves_builds_the_nets_tree
    passed = []

    def search_spy(moves, targets, cap, **bound):
        passed.append(_packed(net, [
            net.marking(iota((r1, r2, (ZERO, CHECK_ZERO)))) for r1, r2 in targets
        ]))
        return witness_search(moves, targets, cap, **bound)

    witness_search = petri._witness_search
    monkeypatch.setattr(petri, "_witness_search", search_spy)
    cases = [
        (comp, Vc) for P, Vc in _criterion_10_pairs(100) for comp in (P, grave(P))
    ]
    cases += [(_word(w), complete(_modular(5, 1, 0))) for w in ("ab", "aab", "abb")]
    searched = 0
    for comp, Vc in cases:
        controls = _live_controls(Vc, engine_for(comp).core)
        net, iota = build_np_v_full(comp, Vc)
        m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
        every = _counterexample_targets(net, iota, Vc)
        # the markings of that list whose control state is live
        live = _packed(net, [
            net.marking(iota((qf, qn, (ZERO, CHECK_ZERO))))
            for qf in sorted(Vc.finals)
            for qn in sorted(set(Vc.states) - set(Vc.finals))
            if (qf, qn, CHECK_ZERO) in controls
        ])
        km = karp_miller(net, m0, node_cap=3000, stop_at=live)
        assert _km_tree(km) == _km_tree(
            km_reference.karp_miller(net, m0, 3000, stop_at=every)
        )
        start = net.marking(m0)
        seen, done = marking_bfs(net, start, 2000, live)
        recorded, ref_done = net_reference.marking_bfs(
            net, start, 2000, _packed(net, every)
        )
        assert _bfs_form(net, seen, done) == _recorded_bfs_form(net, recorded, ref_done)
        # the decision passes these targets, where it builds the net
        passed.clear()
        decide_sp_via_net(comp, Vc, node_cap=3000, forward_cap=2000)
        assert bool(passed) == bool(live)
        assert all(targets == live for targets in passed)
        searched += bool(live)
    assert 0 < searched < len(cases)


def test_bounded_bfs_returns_the_unbounded_witness_on_wide_draws():
    # the norm search's length bounds the witness search, which must still
    # return the firing path that the marking BFS without the bound finds
    # on the net: every net-reachability Fails of the first 300 wide draws of
    # seeds 7, 11 and 13, at falsifier_maxlen=0, in both modes where V is
    # prefix closed
    budgets = Budgets(falsifier_maxlen=0)
    levels = Counter()
    for seed, n, alpha in ((7, 3, "abc"), (11, 4, "abc"), (13, 4, "ab")):
        rng = random.Random(seed)
        for _ in range(300):
            P, V = wide_draw(rng, n, alpha)
            try:
                P, V = normalize(P), normalize(V)
            except EmptyLanguage:
                continue
            for mode in ("prefix", "general") if V.finals == V.states else ("general",):
                v = decide_sp(P, V, mode, budgets)
                if v.route != "net-reachability":
                    continue
                comp, Vn = prepare_query(P, V, mode)
                Vc = complete(Vn)
                net, iota = build_np_v_full(comp, Vc)
                m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
                goals = _packed(net, _counterexample_targets(net, iota, Vc))
                seen, _ = marking_bfs(net, net.marking(m0), budgets.forward_cap, goals)
                (hit,) = goals & seen.keys()
                path = [net.order[j] for j in firing_path(net, seen, hit)]
                assert fails_certificate(decode_firing(net, path)) == v.certificate
                if "norm_length" in v.stats:
                    assert len(path) <= v.stats["norm_length"]
                # a Fails after a Karp–Miller tree, its search unbounded
                levels[v.stats.get("norm_level", "km")] += 1
    # the search finds witnesses beyond norm 1 too
    assert levels[1] > 100 and levels[2]


def test_norm_levels_match_the_reference_norm_search():
    # each norm level is the witness search kept to composite norm n, on
    # the move lists every search of the pair shares; the first level
    # with a counterexample and the length of the shortest one there, or
    # None, must be those of the reference's own walk of the deletion
    # system: every net-stage pair of the first 300 wide draws of seeds 7,
    # 11 and 13, at falsifier_maxlen=0, in both modes where V is prefix
    # closed, with the default cap and the census cap
    budgets = Budgets(falsifier_maxlen=0)
    found = Counter()
    for seed, n, alpha in ((7, 3, "abc"), (11, 4, "abc"), (13, 4, "ab")):
        rng = random.Random(seed)
        for _ in range(300):
            P, V = wide_draw(rng, n, alpha)
            try:
                P, V = normalize(P), normalize(V)
            except EmptyLanguage:
                continue
            for mode in ("prefix", "general") if V.finals == V.states else ("general",):
                if not decide_sp(P, V, mode, budgets).route.startswith("net-"):
                    continue
                comp, Vn = prepare_query(P, V, mode)
                Vc = complete(Vn)
                targets = _target_controls(Vc, _live_controls(Vc, engine_for(comp).core))
                moves = petri._DeletionMoves(comp, Vc)
                for cap in (500_000, 20_000):
                    got = petri._norm_bound(moves, targets, cap)
                    assert got == net_reference.norm_search(comp, Vc, cap)
                    found[got and got[0]] += 1
    assert found[None] and found[1] > 100 and found[2]


def test_net_fails_within_the_norm_build_no_tree(monkeypatch):
    # deciding and replaying a pair whose counterexample the norm search
    # finds calls karp_miller zero times and constructs no net; with the
    # search switched off the tree is built once per pair, on the deletion
    # moves and still on no net, and every certificate is the same
    calls, nets = [], []

    def spy(*args, **kwargs):
        calls.append(args)
        return karp_miller(*args, **kwargs)

    def net_spy(self, *args, **kwargs):
        nets.append(args)
        net_init(self, *args, **kwargs)

    net_init = petri.PetriNet.__init__
    monkeypatch.setattr(petri, "karp_miller", spy)
    monkeypatch.setattr(petri.PetriNet, "__init__", net_spy)
    pairs = [
        (_word(w), _modular(9, step_a, 1 - step_a))
        for w in ("ab", "aab", "abb")
        for step_a in (1, 0)
    ]
    certificates = []
    for P, V in pairs:
        v = decide_sp(P, V, "general")
        assert (v.outcome, v.route) == ("fails", "net-reachability")
        assert replay_certificate(P, V, v)
        certificates.append(v.certificate)
    assert calls == [] and nets == []
    monkeypatch.setattr(petri, "NORM_DEPTH", 0)
    assert [decide_sp(P, V, "general").certificate for P, V in pairs] == certificates
    assert len(calls) == len(pairs) and nets == []


def _moves_marking(net, moves, x):
    # the dense marking of the deletion net that the deletion moves'
    # packed state x stands for, OMEGA where a field holds OMEGA_FIELD
    from shufflecheck.petri import FIELD, FIELD_MASK, OMEGA, OMEGA_FIELD

    counts = [0] * len(net.places)
    states = sorted(engine_for(moves.P).component_states)
    for k, q in enumerate(states):
        n = (x >> (FIELD * k)) & FIELD_MASK
        counts[net.index[petri._q2(q)]] = OMEGA if n == OMEGA_FIELD else n
    r1, r2, e = moves.controls[x >> moves.width]
    for place in (petri._v1(r1), petri._v2(r2), _ep(e)):
        counts[net.index[place]] = 1
    return tuple(counts)


def _deletion_tree(km, read=lambda n: n.via):
    # a tree's nodes as (read(node), accelerated, parent index), and its
    # flags
    index = {id(n): k for k, n in enumerate(km.nodes)}
    nodes = [
        (
            read(n), n.accelerated,
            None if n.parent is None else index[id(n.parent)],
        )
        for n in km.nodes
    ]
    return nodes, km.bounded, km.capped, km.stopped


def _protocol_queries():
    # (comp, V) of every protocol pair that reaches the net stage, in
    # each mode its V allows
    from protocols import pend, proc, sem, serve

    out = []
    for V in (sem(1), sem(2), sem(3), serve(), pend(1), pend(2), pend(3)):
        for mode in ("prefix", "general"):
            out.append(prepare_query(proc(), V, mode))
    return out


def test_karp_miller_on_the_deletion_moves_builds_the_nets_tree(monkeypatch):
    # decide's Karp–Miller tree runs on the deletion moves, stopped at the
    # codes of the live counterexample controls; it must be the tree of
    # build_np_v_full's net stopped at the iota-packed counterexample
    # markings, node for node, each moves state decoded to the net's
    # places and each net transition read as its (core step, group): the
    # first 100 criterion-10 pairs, P and grave(P) against complete V, ab,
    # aab and abb against a count of a mod 5, and the protocol pairs, one
    # of them under a node cap that caps it
    trees = []

    def spy(*args, **kwargs):
        km = karp_miller(*args, **kwargs)
        trees.append(km)
        return km

    cases = [
        (comp, Vc, 3000)
        for P, Vc in _criterion_10_pairs(100)
        for comp in (P, grave(P))
    ]
    cases += [
        (_word(w), complete(_modular(5, 1, 0)), 3000) for w in ("ab", "aab", "abb")
    ]
    cases += [(comp, complete(V), 20_000) for comp, V in _protocol_queries()]
    cases.append((*cases[-1][:2], 300))  # proc against pend(3), general mode
    monkeypatch.setattr(petri, "karp_miller", spy)
    compared = Counter()
    for comp, Vc, node_cap in cases:
        trees.clear()
        decide_sp_via_net(comp, Vc, node_cap=node_cap, forward_cap=2000)
        (decided,) = trees or [None]
        moves = petri._DeletionMoves(comp, Vc)
        live = _target_controls(Vc, _live_controls(Vc, engine_for(comp).core))
        codes = frozenset(moves.code((r1, r2, CHECK_ZERO)) for r1, r2 in live)
        on_moves = karp_miller(moves, moves.start, node_cap, stop_at=codes)
        net, iota = build_np_v_full(comp, Vc)
        targets = _packed(net, [
            net.marking(iota((r1, r2, (ZERO, CHECK_ZERO)))) for r1, r2 in live
        ])
        m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
        on_net = karp_miller(net, m0, node_cap, stop_at=targets)

        def on_moves_read(n):
            return _moves_marking(net, moves, n.packed), n.via

        def on_net_read(n):
            meta = net.meta.get(n.via, {})
            return n.marking, n.via and (meta["core"], meta["group"])

        assert _deletion_tree(on_moves, on_moves_read) == _deletion_tree(
            on_net, on_net_read
        )
        if decided is not None:
            compared["decided"] += 1
            assert _deletion_tree(decided) == _deletion_tree(on_moves)
        compared["capped"] += on_net.capped
        compared["stopped"] += on_net.stopped
        compared["whole"] += not (on_net.capped or on_net.stopped)
    assert compared["decided"] >= 14 and compared["capped"] == 1
    assert compared["stopped"] and compared["whole"]


# The random-general pool pairs, by criterion-10 draw, whose net stage
# runs Karp–Miller: each holds by net-uncoverable after a whole tree
KARP_MILLER_POOL_DRAWS = (169, 1038, 1093, 1254, 1365, 1577, 1831, 2163, 2489)


def test_decide_and_replay_build_no_petri_net(monkeypatch):
    # with PetriNet's constructor refusing, decide and replay still answer
    # every pair whose net stage runs Karp–Miller: the pool pairs above, a
    # Fails found after the tree (norm levels off) and an Unknown whose
    # tree is capped.  The tree is built through petri's karp_miller,
    # the name the benchmark's tracer wraps
    def refuse(self, *args, **kwargs):
        raise AssertionError("a PetriNet was constructed")

    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return karp_miller(*args, **kwargs)

    rng = random.Random(101010)
    draws = []
    for i in range(KARP_MILLER_POOL_DRAWS[-1] + 1):
        P = random_dfa(rng, max_states=3, alpha="ab")
        V = random_dfa(rng, max_states=3, alpha="ab")
        if i in KARP_MILLER_POOL_DRAWS:
            draws.append((P, V))
    monkeypatch.setattr(petri.PetriNet, "__init__", refuse)
    monkeypatch.setattr(petri, "karp_miller", spy)
    for P, V in draws:
        v = decide_sp(P, V, "general")
        assert (v.outcome, v.route) == ("holds", "net-uncoverable")
        assert "km_nodes" in v.stats
        assert replay_certificate(P, V, v)
    assert len(calls) == 2 * len(draws)
    monkeypatch.setattr(petri, "NORM_DEPTH", 0)
    P, V = _word("ab"), _modular(9, 1, 0)
    v = decide_sp(P, V, "general")
    assert (v.outcome, v.route) == ("fails", "net-reachability")
    assert "km_nodes" in v.stats and replay_certificate(P, V, v)
    from protocols import pend, proc

    P, V = proc(), pend(3)
    v = decide_sp(P, V, "prefix", Budgets(km_node_cap=300, forward_cap=2000))
    assert (v.outcome, v.route) == ("unknown", "net-budget")
    assert v.stats["km_capped"] and replay_certificate(P, V, v)
    assert len(calls) == 2 * len(draws) + 2
    assert all(isinstance(moves, petri._DeletionMoves) for moves in calls)


def _odd_names(dfa, letters):
    # dfa with its letters renamed by `letters` and each state q renamed
    # to "q|:,"
    rename = {a: Letter(letters[str(a)]) for a in dfa.alphabet}
    return Dfa(
        tuple(rename[a] for a in dfa.alphabet),
        frozenset(f"{q}|:," for q in dfa.states),
        {(f"{q}|:,", rename[a]): f"{p}|:," for (q, a), p in dfa.delta.items()},
        f"{dfa.initial}|:,", frozenset(f"{q}|:," for q in dfa.finals), dfa.kind,
    )


def test_witness_search_orders_moves_as_the_net_on_odd_names(monkeypatch):
    # the witness search orders its moves by the keys `kind|step|` that
    # the net's transition names begin with, and relies on those keys
    # being prefix-free; here P's letters and states hold |, : and , and
    # the net's order is far from `step_order`.  Every net-reachability
    # Fails of decide_sp_via_net, in both modes and with the norm search
    # on (bounded) and off (after Karp–Miller, unbounded), must give the
    # certificate decoded from the net's own marking BFS without a bound;
    # unbounded, the search keeps the BFS's markings too
    letters = {"a": "a|", "b": "b:,"}
    P = normalize(_odd_names(
        mk_dfa("ab", [("0", "a", "1"), ("1", "b", "2"), ("1", "a", "0")], "0",
               ["1", "2"]),
        letters,
    ))
    core = engine_for(P).core
    assert sorted(core, key=step_order) != sorted(core, key=lambda t: f"{t.kind}|{t}|")
    rng = random.Random(44)
    checked = Counter()
    depths = (petri.NORM_DEPTH, 0)
    for _ in range(60):
        drawn = _odd_names(random_dfa(rng, 3), letters)
        # each draw, and the prefix-closed language of its states all final
        for V, modes in (
            (drawn, ("general",)),
            (replace(drawn, finals=drawn.states), ("prefix", "general")),
        ):
            try:
                V = normalize(V)
            except EmptyLanguage:
                continue
            for mode in modes:
                comp, Vn = prepare_query(P, V, mode)
                Vc = complete(Vn)
                net, iota = build_np_v_full(comp, Vc)
                m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
                goals = _packed(net, _counterexample_targets(net, iota, Vc))
                seen, _ = marking_bfs(net, net.marking(m0), 2000, goals)
                hits = goals & seen.keys()
                for depth in depths:
                    monkeypatch.setattr(petri, "NORM_DEPTH", depth)
                    v = decide_sp_via_net(comp, Vn, node_cap=3000, forward_cap=2000)
                    assert (v.status == "fails") == bool(hits)
                    if not hits:
                        continue
                    (hit,) = hits
                    path = [net.order[j] for j in firing_path(net, seen, hit)]
                    assert v.witness == decode_firing(net, path)
                    if depth == 0:
                        assert v.stats["markings"] == len(seen)
                    checked[mode, depth > 0] += 1
    assert len(checked) == 4 and min(checked.values()) >= 3


def test_abb_against_a_count_mod_56_fails_by_net_reachability():
    # ROADMAP's B6: without a bound the marking BFS passes its 500,000
    # markings before it reaches a counterexample marking, and the pair
    # was Unknown (net-budget); bounded by the norm search's 168 letters it
    # keeps 123,424 markings and finds one
    P, V = _word("abb"), _modular(56, 1, 0)
    v = decide_sp(P, V, "general")
    assert (v.outcome, v.route) == ("fails", "net-reachability")
    assert v.stats == {"norm_level": 1, "norm_length": 168, "markings": 123424}
    assert replay_certificate(P, V, v)


def test_control_check_settles_only_pairs_without_a_violation():
    # whenever the control search of the deletion net finds no
    # counterexample's control, the bounded falsifier finds no violation
    # either; wide draws, in both modes where V is prefix closed
    rng = random.Random(16)
    settled = decisions = 0
    for _ in range(300):
        P, V = wide_draw(rng)
        try:
            P, V = normalize(P), normalize(V)
        except EmptyLanguage:
            continue
        modes = ("prefix", "general") if V.finals == V.states else ("general",)
        Vc = complete(V)
        for mode in modes:
            comp = grave(P) if mode == "prefix" else P
            decisions += 1
            if _control_check_settles(comp, Vc):
                settled += 1
                assert sp_falsify(comp, V, 5) is None, (P, V, mode)
    assert settled > decisions // 2


def test_zero_route_needs_no_forward_search():
    # With V complete, the forward tree is bounded exactly when the core
    # has no START step; every backward tree then has at most |V| nodes,
    # so the backward search settles every pair the forward one could.
    for P, Vc in _criterion_10_pairs(300):
        for comp in (P, grave(P)):
            forward, iota = build_npv(comp, Vc)
            km = karp_miller(forward, iota((ZERO, Vc.initial)))
            bounded = not km.capped and km.bounded
            no_start = all(t.kind != START for t in engine_for(comp).core)
            assert bounded == no_start
            if bounded:
                backward = reversed_net(forward)
                for qf in Vc.finals:
                    tree = karp_miller(backward, iota((ZERO, qf)))
                    assert len(tree.nodes) <= len(Vc.states)


def test_km_stops_before_a_count_reaches_omega():
    # t, with an empty pre-set, adds one token to p a firing; p's field
    # lies below q's, so a count carried out of p's field would show up as
    # a token on q
    from shufflecheck.engine import CounterVector
    from shufflecheck.petri import OMEGA_FIELD, PetriNet

    vec = CounterVector.make
    net = PetriNet(frozenset({"p", "q"}), {"t": {}}, {"t": {"p": 1}}, {}, ("t",))
    km = karp_miller(net, vec({"p": OMEGA_FIELD - 1}))
    assert km.capped and [n.marking for n in km.nodes] == [(OMEGA_FIELD - 1, 0)]
    # s: q -> p grows p without dominating an ancestor, so the tree keeps
    # exact counts until p would reach OMEGA_FIELD
    net = PetriNet(
        frozenset({"p", "q"}), {"s": {"q": 1}}, {"s": {"p": 1}}, {}, ("s",),
    )
    km = karp_miller(net, vec({"p": OMEGA_FIELD - 2, "q": 2}))
    assert km.capped
    assert [n.marking for n in km.nodes] == [
        (OMEGA_FIELD - 2, 2), (OMEGA_FIELD - 1, 1),
    ]
    # a root at or above OMEGA_FIELD is the whole, capped tree
    for big in (OMEGA_FIELD, 2**40):
        km = karp_miller(net, vec({"p": big, "q": 1}))
        assert km.capped and [n.marking for n in km.nodes] == [(big, 1)]


def test_marking_bfs_stops_before_a_count_overflows():
    # t, with an empty pre-set, adds one token to p a firing; p's field
    # lies below q's, so a count carried out of p's field would show up as
    # a token on q
    from shufflecheck.engine import CounterVector
    from shufflecheck.petri import TOP, PetriNet

    vec = CounterVector.make
    net = PetriNet(frozenset({"p", "q"}), {"t": {}}, {"t": {"p": 1}}, {}, ("t",))
    seen, exhausted = marking_bfs(net, net.marking(vec({"p": 2**31 - 2})))
    assert not exhausted
    assert [net.unpack(m) for m in seen] == [(2**31 - 2, 0), (2**31 - 1, 0)]
    parents, exhausted = reachable_markings(net, vec({"p": 2**31 - 2}))
    assert not exhausted
    assert list(parents) == [vec({"p": 2**31 - 2}), vec({"p": 2**31 - 1})]
    # a root at TOP is never packed into the search
    assert marking_bfs(net, (TOP, 0)) == ({}, False)
    assert net.unpack(net.pack((5, 2**31 - 1))) == (5, 2**31 - 1)
    assert net.pack((2**40, 0)) == net.pack((TOP, 0))


def test_net_reachability_witness_golden():
    # the witness pins the marking BFS's parent order: for P = {ab} each
    # letter has one core step and the V-states follow the word, so the
    # word and the component's positions fix the firing
    res = decide_sp_via_net(_word("ab"), _modular(5, 1, 0))
    assert (res.status, res.route) == ("fails", "net-reachability")
    assert res.stats == {"norm_level": 1, "norm_length": 10, "markings": 45}
    word, remainder, component, positions = res.witness
    assert "".join(a.symbol for a in word) == "ababababab"
    assert "".join(a.symbol for a in remainder) == "abababab"
    assert "".join(a.symbol for a in component) == "ab"
    assert positions == (0, 1)


def test_petri_net_takes_unit_arcs_only():
    # every net the builders make is ordinary; an arc of weight 2, in a
    # pre-set or a post-set, is refused
    from shufflecheck.petri import PetriNet

    for pre, post in (({"p": 2}, {"q": 1}), ({"p": 1}, {"q": 2})):
        with pytest.raises(ValueError, match="weight"):
            PetriNet({"p", "q"}, {"t": pre}, {"t": post}, {}, ("t",))
    net = PetriNet({"p", "q"}, {"t": {"q": 1, "p": 1}}, {"t": {"q": 1}}, {}, ("t",))
    assert (net.pre, net.post) == ([(0, 1)], [(1,)])


def test_enabled_step_requires_tokens(two_start, tracker4):
    net, iota = build_npv(two_start, tracker4)
    m0 = iota((ZERO, "1"))
    fired = [t for t in net.order if enabled_step(net, m0, t) is not None]
    # only the two start letters are enabled initially
    assert {net.meta[t]["core"].kind for t in fired} == {"start"}
    assert len(fired) == 2


def test_full_net_one_token_invariants(two_start, tracker4):
    from shufflecheck.automata import Dfa

    V = Dfa(
        tracker4.alphabet, tracker4.states, dict(tracker4.delta),
        tracker4.initial, tracker4.states, "dfa",
    )
    Vc = complete(V)
    net, iota = build_np_v_full(two_start, Vc)
    m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
    groups = one_token_groups(two_start, Vc)
    assert check_one_token(groups, m0)
    seen, _ = reachable_markings(net, m0, 5000)
    assert all(check_one_token(groups, m) for m in seen)


def test_net_decision_holds_uncoverable(alt):
    res = decide_sp_via_net(grave(alt), alt)
    assert res.status == "holds"
    assert res.route == "net-uncoverable"


def test_net_route_on_one_letter_words_is_exact_without_exhausting():
    # every word of P has one letter, so no counter ever holds a token:
    # where Karp–Miller stops, its last node is a target itself, which the
    # marking BFS reaches.  Called directly, since decide_sp settles these
    # pairs earlier by a fragment route.
    P = normalize(mk_dfa("ab", [("1", "a", "2"), ("1", "b", "2")], "1", ["2"]))
    rng = random.Random(7)
    routes = {}
    for _ in range(400):
        _, V = wide_draw(rng, 3, "ab")
        try:
            V = normalize(V)
        except EmptyLanguage:
            continue
        route = decide_sp_via_net(P, V).route
        routes[route] = routes.get(route, 0) + 1
        Vc = complete(V)
        net, iota = build_np_v_full(P, Vc)
        targets = _counterexample_targets(net, iota, Vc)
        m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
        km = karp_miller(net, m0, stop_at=_packed(net, targets))
        assert km.stopped == (route == "net-reachability"), V
        if km.stopped:
            assert km.nodes[-1].marking in targets
    assert routes == {"net-uncoverable": 268, "net-reachability": 90}


def test_net_decision_finds_counterexample(ring3, ring9):
    res = decide_sp_via_net(ring3, ring9, forward_cap=100_000)
    assert res.status == "fails"
    word, remainder, component, positions = res.witness
    # the decoded firing interleaves the component into the word
    assert tuple(word[i] for i in positions) == component
    rest = tuple(a for i, a in enumerate(word) if i not in set(positions))
    assert rest == remainder
    from shufflecheck.automata import accepts
    from shufflecheck.engine import shuffle_member

    assert shuffle_member(ring3, word)
    assert accepts(ring9, word)
    assert not accepts(ring9, remainder)


def test_deletion_net_export_golden(two_start, tracker4):
    # places, transition ids and arcs of the deletion net
    Vc = complete(tracker4)
    net, iota = build_np_v_full(two_start, Vc)
    m0 = iota((Vc.initial, Vc.initial, (ZERO, ZERO)))
    golden = GOLDEN / "npv_full_two_start_tracker4.dot"
    assert to_dot(net, m0) + "\n" == golden.read_text()
    # the transitions the net leaves out are the reference net's that its
    # full Karp–Miller tree never fires
    ref, _ = net_reference.build_np_v_full(two_start, Vc)
    km = karp_miller(ref, m0)
    assert not km.capped
    fired = {
        t
        for n in km.nodes
        for t, inputs in zip(ref.order, ref.pre)
        if all(n.marking[i] >= 1 for i in inputs)
    }
    dropped = set(ref.order) - set(net.order)
    assert dropped and not dropped & fired


def test_exports_golden(two_start, tracker4):
    # place and transition ids, arc order and the initial marking
    net, iota = build_npv(two_start, tracker4)
    m0 = iota((ZERO, "1"))
    stem = GOLDEN / "npv_two_start_tracker4"
    assert to_pnml(net, m0) + "\n" == stem.with_suffix(".pnml").read_text()
    assert to_dot(net, m0) + "\n" == stem.with_suffix(".dot").read_text()
    # arcs go in place order whatever order the pre- and post-sets were
    # given in, and no arc carries a weight
    from shufflecheck.petri import PetriNet

    net = PetriNet(
        {"p", "q"}, {"t": {"q": 1, "p": 1}}, {"t": {"q": 1, "p": 1}}, {}, ("t",)
    )
    assert to_dot(net) == "\n".join([
        "digraph net {",
        "  rankdir=LR;",
        '  "p" [shape=circle, label="p"];',
        '  "q" [shape=circle, label="q"];',
        '  "t" [shape=box];',
        '  "p" -> "t";',
        '  "q" -> "t";',
        '  "t" -> "p";',
        '  "t" -> "q";',
        "}",
    ])
    assert [
        (a.get("source"), a.get("target"), a.findtext("inscription/text"))
        for a in ET.fromstring(to_pnml(net)).iter("arc")
    ] == [("p0", "t0", None), ("p1", "t0", None), ("t0", "p0", None), ("t0", "p1", None)]
