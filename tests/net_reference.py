"""Net-based references: the three-track deletion net with every
transition, the reference for `petri.build_np_v_full`, and the fragment
routes decided on the product net, the reference for
`petri.decide_alf_pre_finite` and `petri.decide_alf_zero_finite`.

`shufflecheck.petri.build_np_v_full` builds only the transitions whose
control pre-set a run from the initial marking can mark, and keeps no
places for the composite's counters; this builds one paired transition
per core step and pair of V-states and one component transition per core
step and V-state, and runs the composite's counters on Q1:: places
beside the remainder's Q2:: ones.  A test can then require the two nets
to agree on every transition the smaller one keeps, up to the arcs on
Q1:: places, and every search to see the same markings in both once the
reference's are projected onto the smaller net's places.

`marking_bfs` is the marking BFS that records each marking's parent
together with the transition fired there, the reference for
`petri.marking_bfs`, which keeps the parent only; `fired` and
`firing_path` recover the transitions from that map, and `decode_firing`
reads a firing sequence of the deletion net as the falsifier's
counterexample, so a test can hold `petri._witness_search`'s witness to
the one the net's own BFS gives.

`norm_search` is the net route's norm search as its own breadth-first
walk of the deletion system, on (V1 rank, V2 rank, packed remainder,
tracked component) tuples over the falsifier's word table, pruning the
states that lead to no counterexample: the reference for
`petri._norm_bound`, which runs the witness search at each norm level.

`one_token_groups` and `check_one_token` state the invariant both nets
keep: the V1 places, the V2 places and the tracked places each hold one
token in every reachable marking.  `petri.build_np_v_full` packs each of
those groups as one small field; `ungrouped` rebuilds a net with one
field per place, so a test can require both layouts to search alike.

The two routes here answer each finiteness question with Karp–Miller on
`petri.build_npv`'s net, forward from (0, V.initial), and on its
`reversed_net` from each accepting closure (0, q_f); the package's
routes walk the packed product states instead.  The prefix route then
walks the product a second time with `product_walk`, and the zero route
keeps its forward walk inside the backward trees' markings.
`product_walk` is `petri.build_product` on vector and step objects,
with the engine's `successors` built again at every product state; it
is the reference for that walk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from shufflecheck.automata import Dfa, complete, live_states
from shufflecheck.engine import (
    NORM_MOD,
    WORD_FIELD,
    ZERO,
    CounterVector,
    elementary_vector_states,
    engine_for,
    walk_table,
)
from shufflecheck.petri import (
    CHECK_PLACE,
    DEFAULT_FORWARD_CAP,
    DEFAULT_KM_NODE_CAP,
    NORM_DEPTH,
    PetriNet,
    _arcs,
    _closing_letters,
    _ep,
    _q2,
    _v1,
    _v2,
    build_npv,
    karp_miller,
)


def _q1(q) -> str:
    return f"Q1::{q}"


def build_np_v_full(P: Dfa, V: Dfa) -> tuple:
    """(net, iota) of the three-track deletion net with every transition,
    in the names, meta and order that `petri.build_np_v_full` uses; iota
    maps (V1-state, V2-state, (composite vector, remainder vector, tracked
    vector or "check")) to a marking."""
    V = complete(V)
    eng = engine_for(P)
    evecs = sorted(elementary_vector_states(P), key=str)
    places = (
        {_v1(q) for q in V.states}
        | {_v2(q) for q in V.states}
        | {_q1(q) for q in P.states}
        | {_q2(q) for q in P.states}
        | {_ep(v) for v in evecs}
        | {CHECK_PLACE}
    )
    pre, post, meta = {}, {}, {}
    for t in eng.ordered_core:
        a = t.letter
        paired_pre = {**_arcs(_q1, t.source), **_arcs(_q2, t.source)}
        paired_post = {**_arcs(_q1, t.target), **_arcs(_q2, t.target)}
        component_pre = {_ep(t.source): 1, **_arcs(_q1, t.source)}
        tracked = CHECK_PLACE if t.target.is_zero() else _ep(t.target)
        component_post = {tracked: 1, **_arcs(_q1, t.target)}
        for r1 in sorted(V.states):
            s1 = V.delta[(r1, a)]
            for r2 in sorted(V.states):
                s2 = V.delta[(r2, a)]
                tid = f"S|{t.kind}|{t}|{r1},{r2}"
                pre[tid] = {_v1(r1): 1, _v2(r2): 1, **paired_pre}
                post[tid] = {_v1(s1): 1, _v2(s2): 1, **paired_post}
                meta[tid] = {"group": "S", "core": t}
            tid = f"E|{t.kind}|{t}|{r1}"
            pre[tid] = {_v1(r1): 1, **component_pre}
            post[tid] = {_v1(s1): 1, **component_post}
            meta[tid] = {"group": "E", "core": t}
    net = PetriNet(places, pre, post, meta, tuple(sorted(pre)))

    def iota(state) -> CounterVector:
        q1, q2, (s1, s2, s3) = state
        check = CHECK_PLACE if s3 == "check" else _ep(s3)
        counts = {_v1(q1): 1, _v2(q2): 1, check: 1}
        counts.update(_arcs(_q1, s1))
        counts.update(_arcs(_q2, s2))
        return CounterVector.make(counts)

    return net, iota


def _named_arcs(net: PetriNet, sets) -> dict:
    """net's positional pre- or post-sets as {transition: {place: 1}}."""
    return {t: {net.places[i]: 1 for i in sets[j]} for j, t in enumerate(net.order)}


def reversed_net(net: PetriNet) -> PetriNet:
    """net with every transition's pre- and post-set swapped, so that it
    runs backward; places, meta and transition order stay."""
    return PetriNet(
        net.places, _named_arcs(net, net.post), _named_arcs(net, net.pre),
        net.meta, net.order,
    )


def ungrouped(net: PetriNet) -> PetriNet:
    """net rebuilt without its one-token groups: the same places, arcs,
    meta and transition order, with one FIELD-bit field per place in its
    packed markings."""
    return PetriNet(
        net.places, _named_arcs(net, net.pre), _named_arcs(net, net.post),
        net.meta, net.order,
    )


def marking_bfs(net: PetriNet, m0: tuple, cap: int, stop_at: frozenset) -> tuple:
    """(packed marking -> (packed parent, transition position), exhausted):
    the search `petri.marking_bfs` documents, with the firing recorded for
    every marking and the root's entry (None, None)."""
    top = net.top
    position = {t: j for j, t in enumerate(net.order)}
    start = net.pack(m0)
    if start & top:
        return {}, False
    seen = {start: (None, None)}
    if start in stop_at:
        return seen, False
    queue = deque([start])
    while queue:
        m = queue.popleft()
        key = net.key(m)
        enabled = net.ready.get(key)
        if enabled is None:
            enabled = net.ready_at(key)
        for effect, t in enabled:
            j = position[t]
            m2 = m + effect
            if m2 in seen:
                continue
            if m2 & top:
                return seen, False
            seen[m2] = (m, j)
            if m2 in stop_at or len(seen) > cap:
                return seen, False
            queue.append(m2)
    return seen, True


def recorded_path(seen: dict, m: int) -> list:
    """The transition positions from the root of `marking_bfs`'s map seen
    to m, as the map records them."""
    path = []
    while seen[m][0] is not None:
        m, j = seen[m]
        path.append(j)
    path.reverse()
    return path


def fired(net: PetriNet, prev: int, m: int) -> int:
    """The position of the transition that `petri.marking_bfs` fired at
    the packed marking prev to keep m, m's parent being prev.  The search
    fires prev's ready list in net order and keeps m at the first firing
    that reaches it, so that is the first transition of the list whose
    effect is m - prev."""
    key = net.key(prev)
    enabled = net.ready.get(key)
    if enabled is None:
        enabled = net.ready_at(key)
    step = m - prev
    return net.order.index(next(t for effect, t in enabled if effect == step))


def firing_path(net: PetriNet, seen: dict, m: int) -> list:
    """The positions of the transitions from the root of
    `petri.marking_bfs`'s map seen to its packed marking m, each recovered
    by `fired`."""
    path = []
    prev = seen[m]
    while prev is not None:
        path.append(fired(net, prev, m))
        m, prev = prev, seen[prev]
    path.reverse()
    return path


def decode_firing(net: PetriNet, path) -> tuple:
    """Word-level reading of a firing sequence of the deletion net, as
    `sp_falsify` gives a counterexample: (word, remainder, component,
    positions), where a paired transition reads into the remainder."""
    word, remainder, component, positions = [], [], [], []
    for i, tid in enumerate(path):
        info = net.meta[tid]
        a = info["core"].letter
        word.append(a)
        if info["group"] == "S":
            remainder.append(a)
        else:
            component.append(a)
            positions.append(i)
    return tuple(word), tuple(remainder), tuple(component), tuple(positions)


# The tracked component in the norm search once it has closed; 0 stands
# for "not yet opened" and a packed unit vector for an open component.
_CLOSED = -1


def norm_search(P: Dfa, V: Dfa, cap: int) -> Optional[tuple]:
    """(level, length): the first norm level n = 1, ..., NORM_DEPTH inside
    which the deletion system has a counterexample, and the length of the
    shortest one there; None when no level has one, or when a level keeps
    more than cap states.  V must be complete.

    A state is (V1-state, V2-state, remainder vector, tracked component),
    as in a marking of `build_np_v_full`'s net: the vector packed as word
    membership packs it, and the component 0 before it opens, its packed
    unit vector while open and _CLOSED once closed.  A letter a moves both
    V-states and the remainder along a core step on a, a paired
    transition, or V1 and the component along one, a component
    transition, with the steps of `walk_table(P, WORD_FIELD)`.  Level n
    keeps only states whose composite, the remainder plus the open
    component, has norm at most n; a breadth-first search from
    (V.initial, V.initial, 0, 0) stops at the first depth that holds a
    counterexample state: V1 final, V2 not, the remainder 0 and the
    component closed.  It leaves out states that lead to none: those whose
    V1-state no word takes to a final state, and those with a component,
    of the remainder or tracked, that no word closes (`_closing_letters`).
    """
    eng = engine_for(P)
    states = sorted(V.states)
    rank = {r: i for i, r in enumerate(states)}
    _layout, table = walk_table(P, WORD_FIELD)
    steps = [[(guard, effect) for guard, effect, _k, _b in table[a]] for a in P.alphabet]
    after = [[rank[V.delta[(r, a)]] for a in P.alphabet] for r in states]
    finals = {rank[r] for r in V.finals}
    accepting = {rank[r] for r in live_states(V)}  # V1 can still accept
    closing = _closing_letters(P)
    if ZERO not in closing:  # the tracked component can never close
        return None
    # the fields, in `walk_table`'s layout, of the component states from
    # which no component closes
    dead = sum(
        NORM_MOD << WORD_FIELD * i
        for i, q in enumerate(sorted(eng.component_states))
        if CounterVector.unit(q) not in closing
    )
    start = (rank[V.initial], rank[V.initial], 0, 0)
    for level in range(1, NORM_DEPTH + 1):
        seen = {start}
        frontier = [start]
        length = 0
        while frontier:
            length += 1
            grown = []
            for r1, r2, f, e in frontier:
                norm = f % NORM_MOD
                new = []
                for on, s1, s2 in zip(steps, after[r1], after[r2]):
                    if s1 not in accepting:
                        continue
                    for guard, effect in on:
                        if not guard or f & guard:  # a paired transition
                            g = f + effect
                            if g % NORM_MOD + (e > 0) <= level and not g & dead:
                                new.append((s1, s2, g, e))
                        if e < 0 or (not e & guard if e else guard):
                            continue
                        e2 = e + effect or _CLOSED  # a component transition
                        if e2 < 0 or (norm < level and not e2 & dead):
                            new.append((s1, r2, f, e2))
                for state in new:
                    if state in seen:
                        continue
                    seen.add(state)
                    s1, s2, g, e2 = state
                    if e2 < 0 and not g and s1 in finals and s2 not in finals:
                        return level, length
                    if len(seen) > cap:
                        return None
                    grown.append(state)
            frontier = grown
    return None


def one_token_groups(P: Dfa, V: Dfa) -> tuple:
    """The V1 places, the V2 places and the tracked places of the
    deletion net over (P, V)."""
    V = complete(V)
    evecs = elementary_vector_states(P)
    return (
        frozenset(_v1(q) for q in V.states),
        frozenset(_v2(q) for q in V.states),
        frozenset({_ep(v) for v in evecs} | {CHECK_PLACE}),
    )


def check_one_token(groups, M: CounterVector) -> bool:
    """Does the marking M put exactly one token in each group?"""
    counts = dict(M.entries)
    return all(
        sum(counts.get(p, 0) for p in group) == 1 for group in groups
    )


def product_walk(P: Dfa, V: Dfa, cap: int, keep=None) -> tuple:
    """(states, fragment, exhausted): `petri.build_product`'s walk on
    vector and step objects, with the engine's `successors` built again
    for every product state; keep, if given, takes (vector, V-state)."""
    eng = engine_for(P)
    start = (ZERO, V.initial)
    if keep is not None and not keep(start):
        return set(), frozenset(), True
    seen = {start}
    queue = deque([start])
    fragment = set()
    while queue:
        f, r = queue.popleft()
        for a in P.alphabet:
            s = V.delta.get((r, a))
            if s is None:
                continue
            for t in eng.successors(f, a):
                nxt = (t.target, s)
                if keep is not None and not keep(nxt):
                    continue
                fragment.add(t)
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > cap:
                        return seen, frozenset(fragment), False
                    queue.append(nxt)
    return seen, frozenset(fragment), True


@dataclass(frozen=True)
class RouteAnswer:
    """A reference route's answer, with the fragment and product states
    as step and vector objects."""

    status: str  # finite | infinite | unknown
    delta: Optional[frozenset] = None
    pump: Optional[tuple] = None
    states: Optional[frozenset] = None
    stats: dict = field(default_factory=dict)


def decide_alf_pre_finite(
    P: Dfa,
    V: Dfa,
    node_cap: int = DEFAULT_KM_NODE_CAP,
    forward_cap: int = DEFAULT_FORWARD_CAP,
) -> RouteAnswer:
    """The prefix route on the product net: the net is bounded exactly
    when the product is finite, and then `product_walk` walks it."""
    net, iota = build_npv(P, V)
    m0 = iota((ZERO, V.initial))
    km = karp_miller(net, m0, node_cap)
    if km.capped:
        return RouteAnswer(
            "unknown", stats={"km_nodes": len(km.nodes), "capped_by": "km_node_cap"}
        )
    if not km.bounded:
        return RouteAnswer(
            "infinite", pump=km.pump, stats={"km_nodes": len(km.nodes)}
        )
    states, delta, exhausted = product_walk(P, V, forward_cap)
    stats = {"km_nodes": len(km.nodes), "product_states": len(states)}
    if not exhausted:
        return RouteAnswer("unknown", stats={**stats, "capped_by": "forward_cap"})
    return RouteAnswer("finite", delta=delta, states=frozenset(states), stats=stats)


def decide_alf_zero_finite(
    P: Dfa,
    V: Dfa,
    node_cap: int = DEFAULT_KM_NODE_CAP,
    forward_cap: int = DEFAULT_FORWARD_CAP,
) -> RouteAnswer:
    """The zero route on the backward product net: R is the set of packed
    markings of the Karp–Miller trees from each (0, q_f), each tree bounded
    by node_cap, and the forward product is walked inside R."""
    V = complete(V)
    net, iota = build_npv(P, V)
    rev = reversed_net(net)
    R: set = set()
    for qf in sorted(V.finals):
        km = karp_miller(rev, iota((ZERO, qf)), node_cap)
        if km.capped or not km.bounded:
            return RouteAnswer("unknown", stats={"km_nodes": len(km.nodes)})
        # with no node accelerated, the tree holds every reachable marking
        R.update(node.packed for node in km.nodes)
    states, delta, exhausted = product_walk(
        P, V, forward_cap,
        keep=lambda state: rev.pack(rev.marking(iota(state))) in R,
    )
    if not exhausted:
        return RouteAnswer("unknown", stats={"states": len(states)})
    return RouteAnswer("finite", delta=delta, states=frozenset(states))
