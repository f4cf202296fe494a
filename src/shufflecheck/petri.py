"""Place/transition nets, coverability analysis, and the two net
simulations driving the finiteness and counterexample decisions.

The first net mirrors the product of the counter semiautomaton with a
finite tracker and decides whether the relevant transition alphabet is
finite.  The second net runs the three-track deletion system with
unbounded counters; its reachability questions answer the closure decision
where the fragment-based route is unavailable.

Markings take two forms.  At the API boundary (the `iota` encodings,
`enabled_step`, `replay_pump` and `reachable_markings`) a marking is a
CounterVector keyed by place name.  Inside the searches (`karp_miller`
and `marking_bfs`) it is dense: a tuple of counts over the net's places in
sorted order (`PetriNet.dense()`), where OMEGA marks a count that
Karp–Miller found unbounded.  A search converts its root and targets on
the way in; `reachable_markings` converts each marking it found once on
the way out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import add, ge
from typing import Optional

from .automata import Dfa, Letter, complete
from .engine import (
    CounterVector,
    END,
    INNER,
    START,
    START_END,
    ShuffleTransition,
    ZERO,
    elementary_vector_states,
    engine_for,
)

DEFAULT_KM_NODE_CAP = 200_000
DEFAULT_FORWARD_CAP = 500_000

# A Karp–Miller count that no bound holds; absorbing under the addition of
# a transition's effect, and not below any count.
OMEGA = float("inf")


@dataclass(frozen=True)
class PetriNet:
    places: frozenset
    pre: dict  # transition id -> CounterVector over places
    post: dict
    meta: dict  # transition id -> decoding info
    order: tuple  # deterministic transition order

    def reversed(self) -> "PetriNet":
        return PetriNet(
            self.places,
            dict(self.post),
            dict(self.pre),
            self.meta,
            self.order,
        )

    def dense(self) -> "DenseNet":
        """The net by position, built on first use and kept on the net."""
        cached = getattr(self, "_dense", None)
        if cached is None:
            cached = DenseNet.of(self)
            object.__setattr__(self, "_dense", cached)
        return cached


@dataclass(eq=False)
class DenseNet:
    """A net's places and transitions by position, for the searches.

    Place i is the i-th place in sorted order, and a dense marking is the
    tuple of counts by place; a support is the bitmask of a marking's
    nonzero places.  Transition j is `net.order[j]`.
    """

    places: tuple  # place names, sorted
    index: dict  # place name -> position
    pre: tuple  # per transition: ((place position, count), ...)
    effect: tuple  # per transition: post - pre, one count per place
    pre_mask: tuple  # per transition: bitmask of its pre-set
    post_mask: tuple  # per transition: bitmask of its post-set
    heavy: dict  # transition -> its pre-set, if some count there exceeds 1
    # support -> the transitions whose pre-set it covers, in net order
    ready: dict = field(default_factory=dict)

    @staticmethod
    def of(net: PetriNet) -> "DenseNet":
        places = tuple(sorted(net.places))
        index = {p: i for i, p in enumerate(places)}
        pre, effect, pre_mask, post_mask, heavy = [], [], [], [], {}
        for j, t in enumerate(net.order):
            entries = tuple([(index[p], n) for p, n in net.pre[t].entries])
            eff = [0] * len(places)
            into = out = 0
            for i, n in entries:
                eff[i] -= n
                into |= 1 << i
                if n > 1:
                    heavy[j] = entries
            for p, n in net.post[t].entries:
                i = index[p]
                eff[i] += n
                out |= 1 << i
            pre.append(entries)
            effect.append(tuple(eff))
            pre_mask.append(into)
            post_mask.append(out)
        return DenseNet(
            places, index, tuple(pre), tuple(effect), tuple(pre_mask),
            tuple(post_mask), heavy,
        )

    def marking(self, v: CounterVector) -> tuple:
        out = [0] * len(self.places)
        for p, n in v.entries:
            out[self.index[p]] = n
        return tuple(out)

    def vector(self, m: tuple) -> CounterVector:
        # places are sorted, so the entries are in CounterVector order
        return CounterVector(tuple((p, n) for p, n in zip(self.places, m) if n))

    def enabled(self, m: tuple, support: int) -> tuple:
        """The transitions enabled at m, in net order; support is m's."""
        ready = self.ready.get(support)
        if ready is None:
            absent = ~support
            ready = tuple(
                j for j, need in enumerate(self.pre_mask) if not need & absent
            )
            self.ready[support] = ready
        if not self.heavy:
            return ready
        heavy = self.heavy
        return tuple(
            j for j in ready
            if j not in heavy or all(m[i] >= n for i, n in heavy[j])
        )


def _support(m: tuple) -> int:
    mask = 0
    for i, n in enumerate(m):
        if n:
            mask |= 1 << i
    return mask


def enabled_step(net: PetriNet, M: CounterVector, t) -> Optional[CounterVector]:
    left = M.sub(net.pre[t])
    if left is None:
        return None
    return left.add(net.post[t])


@dataclass(slots=True)
class KMNode:
    marking: tuple  # dense, with OMEGA where the count is unbounded
    parent: Optional["KMNode"]
    via: Optional[str]
    accelerated: bool = False
    # bitmask of m0's support and of every place a transition on the path
    # from the root reads or writes; acceleration against this node
    # needs growth at one of these places
    touched: int = 0
    support: int = 0  # bitmask of the nonzero places of marking


@dataclass
class KMResult:
    bounded: bool
    nodes: list
    pump: Optional[tuple]  # (prefix transition ids, cycle transition ids)
    capped: bool = False

    def covers(self, target: tuple) -> bool:
        """Does some node's marking cover the dense marking target?"""
        return any(all(map(ge, n.marking, target)) for n in self.nodes)


def karp_miller(
    net: PetriNet, m0: CounterVector, node_cap: int = DEFAULT_KM_NODE_CAP
) -> KMResult:
    """Coverability tree with acceleration on strictly dominated ancestors.

    Deterministic: children expand in the net's transition order; nodes
    whose marking repeats an already-processed one become leaves.  A child
    m accelerates against an ancestor am when m >= am and m > am at a
    finite place among the ancestor's `touched`; every place where m > am
    and am is finite then becomes OMEGA.  The pump is the first acceleration whose
    parent marking has no OMEGA.  Node markings are dense over
    `net.dense().places`.
    """
    dense = net.dense()
    order, pre, effect = net.order, dense.pre, dense.effect
    pre_mask, post_mask = dense.pre_mask, dense.post_mask
    start = dense.marking(m0)
    mask = _support(start)
    root = KMNode(start, None, None, touched=mask, support=mask)
    nodes = [root]
    processed = {start}
    queue = deque([root])
    pump = None
    unbounded = False
    while queue:
        node = queue.popleft()
        nm = node.marking
        for j in dense.enabled(nm, node.support):
            m = tuple(map(add, nm, effect[j]))
            support = node.support | post_mask[j]
            for i, _ in pre[j]:  # only a pre-set place can empty
                if not m[i]:
                    support &= ~(1 << i)
            accelerated = False
            absent = ~support
            anc = node
            while anc is not None:
                am = anc.marking
                if not anc.support & absent and m != am and all(map(ge, m, am)):
                    grew = [
                        i for i, (x, y) in enumerate(zip(m, am))
                        if x != y and y != OMEGA
                    ]
                    if any(anc.touched >> i & 1 for i in grew):
                        if pump is None and OMEGA not in nm:
                            prefix = _path_to_root(anc)
                            full = _path_to_root(node) + [order[j]]
                            pump = (tuple(prefix), tuple(full[len(prefix):]))
                        m = list(m)
                        for i in grew:
                            m[i] = OMEGA
                        m = tuple(m)
                        accelerated = unbounded = True
                anc = anc.parent
            if m in processed:
                continue
            processed.add(m)
            child = KMNode(
                m, node, order[j], accelerated,
                node.touched | pre_mask[j] | post_mask[j], support,
            )
            nodes.append(child)
            if len(nodes) > node_cap:
                return KMResult(False, nodes, pump, capped=True)
            queue.append(child)
    return KMResult(not unbounded, nodes, pump)


def _path_to_root(node: KMNode) -> list:
    path = []
    while node.parent is not None:
        path.append(node.via)
        node = node.parent
    path.reverse()
    return path


def replay_pump(net: PetriNet, m0: CounterVector, pump: tuple) -> bool:
    """Fire prefix then cycle concretely; the cycle must strictly grow."""
    prefix, cycle = pump
    m = m0
    for t in prefix:
        m = enabled_step(net, m, t)
        if m is None:
            return False
    base = m
    for t in cycle:
        m = enabled_step(net, m, t)
        if m is None:
            return False
    return m.geq(base) and m != base


def marking_bfs(
    dense: DenseNet,
    m0: tuple,
    cap: int = DEFAULT_FORWARD_CAP,
    stop_at: frozenset = frozenset(),
) -> tuple:
    """(dense marking -> (parent, transition position), exhausted).

    Breadth-first in net order; stops early when a marking in stop_at is
    reached, and then exhausted is False.  The root's entry is
    (None, None).
    """
    seen = {m0: (None, None)}
    if m0 in stop_at:
        return seen, False
    pre, effect, post_mask = dense.pre, dense.effect, dense.post_mask
    queue = deque([(m0, _support(m0))])
    while queue:
        m, support = queue.popleft()
        for j in dense.enabled(m, support):
            m2 = tuple(map(add, m, effect[j]))
            if m2 in seen:
                continue
            seen[m2] = (m, j)
            if m2 in stop_at or len(seen) > cap:
                return seen, False
            support2 = support | post_mask[j]
            for i, _ in pre[j]:  # only a pre-set place can empty
                if not m2[i]:
                    support2 &= ~(1 << i)
            queue.append((m2, support2))
    return seen, True


def reachable_markings(
    net: PetriNet,
    m0: CounterVector,
    cap: int = DEFAULT_FORWARD_CAP,
    stop_at=(),
) -> tuple:
    """(markings-with-parents, exhausted): BFS with parent pointers.

    Stops early when any marking in stop_at is reached; exhausted is then
    False.
    """
    dense = net.dense()
    seen, exhausted = marking_bfs(
        dense, dense.marking(m0), cap, frozenset(map(dense.marking, stop_at))
    )
    vector = {m: dense.vector(m) for m in seen}
    parents = {
        vector[m]: (vector.get(prev), None if j is None else net.order[j])
        for m, (prev, j) in seen.items()
    }
    return parents, exhausted


def firing_path(parents: dict, m) -> list:
    """The transitions from the root of a BFS's parent map to m."""
    path = []
    while parents[m][0] is not None:
        prev, t = parents[m]
        path.append(t)
        m = prev
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# product-tracking net

def _pp(q) -> str:
    return f"P::{q}"


def _vp(q) -> str:
    return f"V::{q}"


def build_npv(P: Dfa, V: Dfa) -> tuple:
    """Net simulating the product of the counter semiautomaton with V.

    Returns (net, iota) where iota maps a product state (vector, V-state)
    to its marking.
    """
    eng = engine_for(P)
    places = {_pp(q) for q in P.states} | {_vp(r) for r in V.states}
    pre, post, meta = {}, {}, {}
    for t in sorted(eng.sigma_core(), key=lambda t: (str(t), t.kind)):
        for r in sorted(V.states):
            s = V.delta.get((r, t.letter))
            if s is None:
                continue
            tid = f"{t.kind}|{t}|{r}"
            if t.kind == START:
                (p,) = t.target.support()
                pre[tid] = CounterVector.make({_vp(r): 1})
                post[tid] = CounterVector.make({_pp(p): 1, _vp(s): 1})
            elif t.kind == INNER:
                (q,) = t.source.support()
                (p,) = t.target.support()
                pre[tid] = CounterVector.make({_pp(q): 1, _vp(r): 1})
                post[tid] = CounterVector.make({_pp(p): 1, _vp(s): 1})
            elif t.kind == END:
                (q,) = t.source.support()
                pre[tid] = CounterVector.make({_pp(q): 1, _vp(r): 1})
                post[tid] = CounterVector.make({_vp(s): 1})
            else:
                pre[tid] = CounterVector.make({_vp(r): 1})
                post[tid] = CounterVector.make({_vp(s): 1})
            meta[tid] = {"core": t, "vfrom": r, "vto": s}
    net = PetriNet(
        frozenset(places), pre, post, meta, tuple(sorted(pre))
    )

    def iota(state) -> CounterVector:
        f, r = state
        counts = {_pp(q): n for q, n in f.entries}
        counts[_vp(r)] = 1
        return CounterVector.make(counts)

    return net, iota


def build_product(
    P: Dfa, V: Dfa, cap: int = DEFAULT_FORWARD_CAP, keep=None
) -> tuple:
    """(states, edges, exhausted): BFS of the vector/V-state product.

    With a predicate `keep`, the search stays inside the states it
    accepts: it starts only if the start state is kept, and it records
    only edges into kept states.
    """
    eng = engine_for(P)
    start = (ZERO, V.initial)
    if keep is not None and not keep(start):
        return set(), [], True
    seen = {start}
    queue = deque([start])
    edges = []
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
                edges.append(((f, r), t, nxt))
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > cap:
                        return seen, edges, False
                    queue.append(nxt)
    return seen, edges, True


@dataclass(frozen=True)
class AlfResult:
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
) -> AlfResult:
    """Is the transition alphabet of all prefix-tracked interleavings finite?

    V must recognize a prefix-closed language (every state accepting).
    The net is bounded exactly when the product is finite, and
    boundedness is decidable; the answer is Unknown only when node_cap or
    forward_cap stops the search, and the stats name that cap.
    """
    net, iota = build_npv(P, V)
    m0 = iota((ZERO, V.initial))
    km = karp_miller(net, m0, node_cap)
    if km.capped:
        return AlfResult(
            "unknown", stats={"km_nodes": len(km.nodes), "capped_by": "km_node_cap"}
        )
    if not km.bounded:
        return AlfResult(
            "infinite", pump=km.pump, stats={"km_nodes": len(km.nodes)}
        )
    states, edges, exhausted = build_product(P, V, forward_cap)
    stats = {"km_nodes": len(km.nodes), "product_states": len(states)}
    if not exhausted:
        return AlfResult("unknown", stats={**stats, "capped_by": "forward_cap"})
    delta = frozenset(t for _src, t, _tgt in edges)
    return AlfResult("finite", delta=delta, states=frozenset(states), stats=stats)


def decide_alf_zero_finite(
    P: Dfa,
    V: Dfa,
    node_cap: int = DEFAULT_KM_NODE_CAP,
    forward_cap: int = DEFAULT_FORWARD_CAP,
) -> AlfResult:
    """Finiteness of the transition alphabet restricted to interleavings
    that can still close all components inside V.

    V must be a complete automaton with finals.  Exact when either the
    backward (from the accepting closures) or forward marking space is
    finite; Unknown otherwise.
    """
    V = complete(V)
    net, iota = build_npv(P, V)
    targets = [iota((ZERO, qf)) for qf in sorted(V.finals)]
    if not targets:
        return AlfResult("finite", delta=frozenset(), states=frozenset())
    rev = net.reversed()
    dense = rev.dense()
    backward_ok = True
    R: set = set()
    for tm in targets:
        km = karp_miller(rev, tm, node_cap)
        if km.capped or not km.bounded:
            backward_ok = False
            break
        seen, exhausted = marking_bfs(dense, dense.marking(tm), forward_cap)
        if not exhausted:
            backward_ok = False
            break
        R |= seen.keys()
    if backward_ok:
        states, edges, exhausted = build_product(
            P, V, forward_cap, keep=lambda state: dense.marking(iota(state)) in R
        )
        if not exhausted:
            return AlfResult("unknown", stats={"states": len(states)})
        delta = frozenset(t for _src, t, _tgt in edges)
        return AlfResult("finite", delta=delta, states=frozenset(states))
    km = karp_miller(net, iota((ZERO, V.initial)), node_cap)
    if not km.capped and km.bounded:
        states, edges, exhausted = build_product(P, V, forward_cap)
        if exhausted:
            # every state with an edge into `back` is itself in `back`
            back = _backward_states(states, edges, V)
            delta = frozenset(t for _src, t, tgt in edges if tgt in back)
            return AlfResult("finite", delta=delta, states=frozenset(back))
    return AlfResult("unknown", stats={"km_nodes": len(km.nodes)})


def _backward_states(states, edges, V: Dfa) -> set:
    rev: dict = {}
    for src, _t, tgt in edges:
        rev.setdefault(tgt, set()).add(src)
    goal = {s for s in states if s[0] == ZERO and s[1] in V.finals}
    seen = set(goal)
    queue = deque(goal)
    while queue:
        s = queue.popleft()
        for prev in rev.get(s, ()):
            if prev not in seen:
                seen.add(prev)
                queue.append(prev)
    return seen


# ---------------------------------------------------------------------------
# three-track deletion net

CHECK_PLACE = "E::0#"


def _v1(q) -> str:
    return f"V1::{q}"


def _v2(q) -> str:
    return f"V2::{q}"


def _q1(q) -> str:
    return f"Q1::{q}"


def _q2(q) -> str:
    return f"Q2::{q}"


def _ep(vec: CounterVector) -> str:
    return f"E::{vec}"


def build_np_v_full(P: Dfa, V: Dfa) -> tuple:
    """Net executing the three-track deletion system with free counters.

    Paired transitions advance the composite and remainder tracks in step;
    single-sided transitions advance the composite and the one tracked
    component.  Returns (net, iota).
    """
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
    core = sorted(eng.sigma_core(), key=lambda t: (str(t), t.kind))
    for t in core:
        a = t.letter
        for r1 in sorted(V.states):
            s1 = V.delta[(r1, a)]
            # paired step: remainder track follows the composite
            for r2 in sorted(V.states):
                s2 = V.delta[(r2, a)]
                tid = f"S|{t.kind}|{t}|{r1},{r2}"
                pcons = {_v1(r1): 1}
                pcons[_v2(r2)] = pcons.get(_v2(r2), 0) + 1
                pprod = {_v1(s1): 1}
                pprod[_v2(s2)] = pprod.get(_v2(s2), 0) + 1
                if t.kind in (INNER, END):
                    (q,) = t.source.support()
                    pcons[_q1(q)] = 1
                    pcons[_q2(q)] = 1
                if t.kind in (START, INNER):
                    (p,) = t.target.support()
                    pprod[_q1(p)] = pprod.get(_q1(p), 0) + 1
                    pprod[_q2(p)] = pprod.get(_q2(p), 0) + 1
                pre[tid] = CounterVector.make(pcons)
                post[tid] = CounterVector.make(pprod)
                meta[tid] = {"group": "S", "core": t, "v": (r1, r2)}
            # component step: only the composite track and the tracked
            # component move
            tid = f"E|{t.kind}|{t}|{r1}"
            pcons = {_v1(r1): 1}
            pprod = {_v1(s1): 1}
            if t.kind in (START, START_END):
                pcons[_ep(ZERO)] = 1
            else:
                pcons[_ep(t.source)] = 1
                (q,) = t.source.support()
                pcons[_q1(q)] = pcons.get(_q1(q), 0) + 1
            if t.kind in (START, INNER):
                pprod[_ep(t.target)] = 1
                (p,) = t.target.support()
                pprod[_q1(p)] = pprod.get(_q1(p), 0) + 1
            else:
                pprod[CHECK_PLACE] = 1
            pre[tid] = CounterVector.make(pcons)
            post[tid] = CounterVector.make(pprod)
            meta[tid] = {"group": "E", "core": t, "v": (r1,)}
    net = PetriNet(frozenset(places), pre, post, meta, tuple(sorted(pre)))

    def iota(state) -> CounterVector:
        q1, q2, (s1, s2, s3) = state
        counts = {_v1(q1): 1}
        counts[_v2(q2)] = counts.get(_v2(q2), 0) + 1
        for q, n in s1.entries:
            counts[_q1(q)] = n
        for q, n in s2.entries:
            counts[_q2(q)] = n
        key = CHECK_PLACE if s3 == "check" else _ep(s3)
        counts[key] = counts.get(key, 0) + 1
        return CounterVector.make(counts)

    return net, iota


def one_token_groups(P: Dfa, V: Dfa) -> tuple:
    V = complete(V)
    evecs = elementary_vector_states(P)
    return (
        frozenset(_v1(q) for q in V.states),
        frozenset(_v2(q) for q in V.states),
        frozenset({_ep(v) for v in evecs} | {CHECK_PLACE}),
    )


def check_one_token(groups, M: CounterVector) -> bool:
    counts = dict(M.entries)
    return all(
        sum(counts.get(p, 0) for p in group) == 1 for group in groups
    )


@dataclass(frozen=True)
class NetVerdict:
    status: str  # holds | fails | unknown
    route: str
    witness: Optional[dict] = None
    stats: dict = field(default_factory=dict)


def decode_firing(net: PetriNet, path) -> dict:
    """Word-level reading of a firing sequence of the deletion net."""
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
    return {
        "word": tuple(word),
        "remainder": tuple(remainder),
        "component": tuple(component),
        "positions": tuple(positions),
        "firing": tuple(path),
    }


def decide_sp_via_net(
    P: Dfa,
    V: Dfa,
    node_cap: int = DEFAULT_KM_NODE_CAP,
    forward_cap: int = DEFAULT_FORWARD_CAP,
) -> NetVerdict:
    """Closure decision through the deletion net.

    A counterexample is a marking where the composite track is accepted
    with all counters closed, the deleted component is complete, and the
    remainder track is rejected.  Exact when the marking space is finite;
    otherwise Holds is still sound when no such marking is even coverable.
    """
    V = complete(V)
    net, iota = build_np_v_full(P, V)
    m0 = iota((V.initial, V.initial, (ZERO, ZERO, ZERO)))
    nonfinals = sorted(set(V.states) - set(V.finals))
    dense = net.dense()
    targets = [
        dense.marking(iota((qf, qn, (ZERO, ZERO, "check"))))
        for qf in sorted(V.finals)
        for qn in nonfinals
    ]
    km = karp_miller(net, m0, node_cap)
    stats = {"km_nodes": len(km.nodes), "km_capped": km.capped}
    uncoverable = not km.capped and not any(km.covers(t) for t in targets)
    del km  # the tree is not needed past this point; free it before the BFS
    if uncoverable:
        # coverability is decided exactly, so no counterexample marking
        # is reachable at all
        return NetVerdict("holds", "net-uncoverable", stats=stats)
    seen, exhausted = marking_bfs(
        dense, dense.marking(m0), forward_cap, frozenset(targets)
    )
    stats["markings"] = len(seen)
    hit = next((t for t in targets if t in seen), None)
    if hit is not None:
        path = [net.order[j] for j in firing_path(seen, hit)]
        return NetVerdict(
            "fails", "net-reachability", witness=decode_firing(net, path),
            stats=stats,
        )
    if exhausted:
        return NetVerdict("holds", "net-exhaustive", stats=stats)
    return NetVerdict("unknown", "net-budget", stats=stats)


# ---------------------------------------------------------------------------
# export

def to_pnml(net: PetriNet, m0: Optional[CounterVector] = None) -> str:
    import xml.etree.ElementTree as ET

    root = ET.Element("pnml")
    n = ET.SubElement(root, "net", id="net0", type="P/T net")
    page = ET.SubElement(n, "page", id="page0")
    ids = {}
    for i, p in enumerate(sorted(net.places)):
        pid = f"p{i}"
        ids[p] = pid
        el = ET.SubElement(page, "place", id=pid)
        name = ET.SubElement(el, "name")
        ET.SubElement(name, "text").text = p
        if m0 is not None and m0.get(p):
            mk = ET.SubElement(el, "initialMarking")
            ET.SubElement(mk, "text").text = str(m0.get(p))
    for i, t in enumerate(net.order):
        tid = f"t{i}"
        ids[t] = tid
        el = ET.SubElement(page, "transition", id=tid)
        name = ET.SubElement(el, "name")
        ET.SubElement(name, "text").text = t
    arc = 0
    for i, t in enumerate(net.order):
        for p, w in net.pre[t].entries:
            el = ET.SubElement(
                page, "arc", id=f"a{arc}", source=ids[p], target=ids[t]
            )
            if w != 1:
                ins = ET.SubElement(el, "inscription")
                ET.SubElement(ins, "text").text = str(w)
            arc += 1
        for p, w in net.post[t].entries:
            el = ET.SubElement(
                page, "arc", id=f"a{arc}", source=ids[t], target=ids[p]
            )
            if w != 1:
                ins = ET.SubElement(el, "inscription")
                ET.SubElement(ins, "text").text = str(w)
            arc += 1
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


def to_dot(net: PetriNet, m0: Optional[CounterVector] = None) -> str:
    lines = ["digraph net {", "  rankdir=LR;"]
    for p in sorted(net.places):
        tokens = f"\\n{m0.get(p)}" if m0 is not None and m0.get(p) else ""
        lines.append(f'  "{p}" [shape=circle, label="{p}{tokens}"];')
    for t in net.order:
        lines.append(f'  "{t}" [shape=box];')
        for p, w in net.pre[t].entries:
            label = f' [label="{w}"]' if w != 1 else ""
            lines.append(f'  "{p}" -> "{t}"{label};')
        for p, w in net.post[t].entries:
            label = f' [label="{w}"]' if w != 1 else ""
            lines.append(f'  "{t}" -> "{p}"{label};')
    lines.append("}")
    return "\n".join(lines)
