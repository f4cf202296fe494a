"""Place/transition nets, coverability analysis, the fragment routes'
finiteness walks, and the deletion net that decides closure where no
fragment route does.

The fragment routes ask whether the product of the counter semiautomaton
with V is finite: forward from (0, V.initial) on the prefix route, and
backward from the accepting closures (0, q_f) on the zero route.  They
walk the product states themselves; a walk ends unless it meets a state
that strictly covers a tree ancestor with the same V-state, a pump
(`_pump_walk` gives the argument).  A product state is a packed vector,
one int in the engine's layout (`engine.walk_table`) with fields
wide enough for the walk's cap, and a V-state; a step is one test and
one addition, and the cover test is word-parallel (`engine.Layout`).
The prefix route's walk and `build_product` are one breadth-first walk
(`_forward`); the zero route walks backward depth first, then forward
inside what it found.  The fragment Δ a walk finds is an
`engine.Fragment` of packed steps, which the closure search and a Holds
certificate read as it is: step and vector objects are made only for a
pump and on request (`AlfResult.delta`, `AlfResult.states`).  The
product net, `build_npv`, has one reachable marking per product state,
so Karp–Miller on it gives the same answer; it serves the `petri`
command and the tests.  The deletion net runs a composite word as a
remainder and one tracked component with unbounded counters; its
reachability questions answer the closure decision where the fragment
routes do not.  The composite keeps
only its V-state: its counters are always the remainder's plus the
tracked component's vector, so they never decide whether a step can fire.

Both nets take their transitions from the engine's core steps, one
per core step and control state, and their counter arcs from each core
step's vectors: a transition consumes the step's source vector and
produces its target vector on the counter places.  A core step moves one
component, so every arc has weight 1: each net is ordinary (Murata, Proc.
IEEE 1989).  Neither looks at the kind of a step or at the component
automaton's edges.  The deletion-net route first searches the net's
control states, the V1-state, V2-state and tracked place that hold one
token each, from its initial marking with every counter place unbounded
(`_live_controls`).  A counterexample is defined once, by its control
state (`_target_controls`): the composite's V-state final, the
remainder's not, and the tracked component closed, with every counter 0.
When no live control state is a counterexample's, the pair holds by
`net-uncoverable` and the net is never built.  Otherwise a norm search
(`_norm_search`) looks for a counterexample run whose composite never
has more than a few components open.  When it finds one, of D letters,
the pair fails: no net is built, and the witness search
(`_witness_search`) keeps only markings that can still close within D
firings, which leaves its witness as it is without the bound.  When it
finds none, the net is built for Karp–Miller alone, with only the
transitions whose control pre-set the control search reaches, since the
rest could never fire from it; the tree stops at packed targets, one
per live counterexample control, and the witness search then runs
without a bound.  The witness search walks the deletion system itself,
in the net's firing order, and keeps exactly the markings that
`marking_bfs` keeps on the net.

A net is one `PetriNet`: its constructor takes the pre- and post-sets by
place name and keeps them by position (place i is the i-th place in sorted
order), together with what both searches read per transition.

Markings take two forms:

* at the API boundary (the `iota` encodings, `enabled_step`,
  `replay_pump`, `reachable_markings` and the exports) a marking is a
  CounterVector keyed by place name;
* the net's searches, `karp_miller` and `marking_bfs`, use packed
  markings, one int (`PetriNet.pack`), so firing a transition is one
  addition.
  Each counter place has a FIELD-bit count.  A net may also name
  one-token groups, sets of places that hold one token between them in
  every reachable marking, as the deletion net's V1, V2 and tracked
  places do; each group is one field of a few bits holding the index of
  its marked place.  The constructor checks that every transition keeps
  a group's token count, so the invariant holds by construction.  In
  `karp_miller` the counter field value OMEGA_FIELD stands for ω, a
  count found unbounded; a group field is never ω.

A search converts its root on the way in and takes its targets packed:
`marking_bfs` stops at a marking in its set, and `karp_miller`, whose
targets hold no counter token, at a node with a target's group value;
`reachable_markings` unpacks and converts each marking it found once on
the way out, and a `KMNode` decodes its marking to a tuple of counts by
place position, with OMEGA for ω, only when it is read.  Either way the
dense marking is the same as on a net without groups.  The marking BFS
and the witness search keep one parent per marking and no transition;
the witness search finds each move again in the parent's list when it
reads its witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .automata import Dfa, complete, live_states
from .engine import (
    CHECK_ZERO, NORM_MOD, WORD_FIELD, CounterVector, Fragment, ZERO,
    count_width, elementary_vector_states, engine_for, walk_table,
)

DEFAULT_KM_NODE_CAP = 200_000
DEFAULT_FORWARD_CAP = 500_000

# A Karp–Miller count that no bound holds, as a decoded `KMNode.marking`
# shows it; absorbing under the addition of a transition's effect, and not
# below any count.
OMEGA = float("inf")

# Bits per place in a packed marking.  A count that reaches TOP, the top
# bit of its field, ends a marking BFS as the cap does; below TOP, adding
# a firing's effect, one at most, cannot carry into the next field.
FIELD = 32
TOP = 1 << (FIELD - 1)
FIELD_MASK = (1 << FIELD) - 1
# ω in a packed Karp–Miller marking: the largest field value below TOP, so
# it compares above every finite count with TOP as the guard bit.  A finite
# count that would reach it caps the tree.
OMEGA_FIELD = TOP - 1


class PetriNet:
    """An ordinary place/transition net, held by position for the searches.

    Built from its places, its pre- and post-sets as
    {transition: {place: 1}}, `meta` (transition -> decoding info),
    `order`, the deterministic transition order, and `groups`, the net's
    one-token groups: disjoint sets of places that each hold at most one
    token in every marking the searches pack.  Any arc weight but 1 raises
    ValueError, so a transition is enabled exactly where its pre-set is
    marked.  So does a transition that touches a group without taking
    exactly one token from it and putting exactly one back: the token
    count of each group is then a place invariant (Murata, Proc. IEEE
    1989), and a group that starts with one token keeps one.  Place i is
    the i-th place in sorted order and transition j is `order[j]`.  A dense
    marking is the tuple of counts by place.

    The searches pack a dense marking into one int (`pack`).  Each place
    outside every group is a counter: it has a FIELD-bit field, in place
    order from bit 0, whose TOP bit is its guard bit.  Above them each
    group, in the order given, has one field of `len(group).bit_length()`
    bits holding 0 for no token or 1 plus the marked place's rank in the
    group, so a state machine's places cost a few bits between them
    (Pastor & Cortadella, DATE 1998).  A net without groups packs exactly
    as one field per place.  Since a transition touches each group in one
    fixed way, its effect on a packed marking is one constant int.

    A packed marking's ready key is its group fields together with the
    guard bits of its nonzero counters (`key`): the transitions enabled at
    a marking depend on that key alone.  `ready_at` lists them, per key,
    from the candidates of the key's group fields, which are listed once
    per group value.
    """

    def __init__(
        self, places, pre: dict, post: dict, meta: dict, order: tuple, groups=()
    ):
        if {n for arcs in (pre, post) for t in order for n in arcs[t].values()} - {1}:
            raise ValueError("every arc of a net must have weight 1")
        self.places = places = tuple(sorted(places))
        self.index = index = {p: i for i, p in enumerate(places)}
        self.meta = meta  # transition -> decoding info
        self.order = order
        # per transition: the place positions of its pre- and post-set, sorted
        self.pre = [tuple(sorted(map(index.__getitem__, pre[t]))) for t in order]
        self.post = [tuple(sorted(map(index.__getitem__, post[t]))) for t in order]
        members = [tuple(sorted(map(index.__getitem__, g))) for g in groups]
        grouped = [i for g in members for i in g]
        if len(grouped) != len(set(grouped)) or not all(members):
            raise ValueError("the groups of a net must be nonempty and disjoint")
        # (place position, field shift) of every counter place
        self.counters = [
            (i, FIELD * k)
            for k, i in enumerate(sorted(set(range(len(places))) - set(grouped)))
        ]
        width = FIELD * len(self.counters)
        # the TOP bit of every counter field, and a count of one in each
        self.top = TOP * ((1 << width) - 1) // FIELD_MASK
        self.ones = self.top >> (FIELD - 1)
        self.groups = []  # per group: (field shift, field mask, place positions)
        # per place position: its token as a packed marking, its ready-key
        # bit or bits, and its group's field mask (0 for a counter)
        token = [0] * len(places)
        flag, field_of = [0] * len(places), [0] * len(places)
        for i, s in self.counters:
            token[i], flag[i] = 1 << s, TOP << s
        for g in members:
            bits = len(g).bit_length()
            mask = ((1 << bits) - 1) << width
            self.groups.append((width, mask, g))
            for k, i in enumerate(g):
                token[i] = flag[i] = (k + 1) << width
                field_of[i] = mask
            width += bits
        self.group_mask = sum(mask for _, mask, _ in self.groups)
        self.key_mask = self.top | self.group_mask
        self.packed_effect = []  # per transition: post - pre, packed
        # A transition is enabled at a marking whose ready key agrees with
        # the transition's key on its key mask: the fields of the groups it
        # touches and the guard bits of its counter pre-places.  by_touch
        # maps the touched group fields, then the values the transition
        # needs there, to its (position, key mask, key), in net order.
        self.by_touch = {}
        for j, (inputs, outputs) in enumerate(zip(self.pre, self.post)):
            effect = need = taken = put = twice = 0
            for i in inputs:
                f = field_of[i]
                twice |= taken & f
                taken |= f
                effect -= token[i]
                need |= flag[i]
            for i in outputs:
                f = field_of[i]
                twice |= put & f
                put |= f
                effect += token[i]
            if twice or taken != put:
                raise ValueError(
                    "a transition that touches a group must take one token "
                    "from it and put one back"
                )
            self.packed_effect.append(effect)
            self.by_touch.setdefault(taken, {}).setdefault(
                need & taken, []
            ).append((j, need | taken, need))
        # group value -> the by_touch entries it enables, in net order
        self.candidates = {}
        # ready key -> the transitions enabled there, in net order
        self.ready = {}

    def marking(self, v: CounterVector) -> tuple:
        out = [0] * len(self.places)
        for p, n in v.entries:
            out[self.index[p]] = n
        return tuple(out)

    def vector(self, m: tuple) -> CounterVector:
        # places are sorted, so the entries are in CounterVector order
        return CounterVector(tuple((p, n) for p, n in zip(self.places, m) if n))

    def pack(self, m: tuple) -> int:
        """The dense marking m as one int; a count of TOP or more packs as
        TOP, which no marking that `marking_bfs` keeps has.  Raises
        ValueError when m holds more than one token in a group."""
        out = 0
        for i, s in self.counters:
            n = m[i]
            if n:
                out |= (n if n < TOP else TOP) << s
        for s, _, g in self.groups:
            marked = [k for k, i in enumerate(g) if m[i]]
            if marked:
                if len(marked) > 1 or m[g[marked[0]]] > 1:
                    raise ValueError("a group of the net holds more than one token")
                out |= (marked[0] + 1) << s
        return out

    def unpack(self, x: int) -> tuple:
        """The dense marking of the packed marking x."""
        out = [0] * len(self.places)
        for i, s in self.counters:
            out[i] = (x >> s) & FIELD_MASK
        for s, mask, g in self.groups:
            v = (x & mask) >> s
            if v:
                out[g[v - 1]] = 1
        return tuple(out)

    def key(self, x: int) -> int:
        """The ready key of the packed marking x: its group fields and the
        guard bits of its nonzero counters.  Subtracting one from each
        counter field with its guard bit set keeps that bit exactly where
        the count is nonzero, and borrows from no other field."""
        return ((x | self.top) - self.ones) & self.key_mask

    def ready_at(self, key: int) -> tuple:
        """The transitions enabled at a marking of ready key `key`, in net
        order, computed and kept in `ready`; callers look there first."""
        value = key & self.group_mask
        candidates = self.candidates.get(value)
        if candidates is None:
            candidates = self.candidates[value] = sorted(
                entry
                for touched, by_value in self.by_touch.items()
                for entry in by_value.get(value & touched, ())
            )
        ready = tuple([j for j, mask, need in candidates if key & mask == need])
        self.ready[key] = ready
        return ready


def enabled_step(net: PetriNet, M: CounterVector, t) -> Optional[CounterVector]:
    """The marking after firing t at M, or None when a place of t's
    pre-set is empty: every arc moves one token, the net being ordinary."""
    j = net.order.index(t)
    m = list(net.marking(M))
    for i in net.pre[j]:
        if not m[i]:
            return None
        m[i] -= 1
    for i in net.post[j]:
        m[i] += 1
    return net.vector(m)


@dataclass(slots=True)
class KMNode:
    packed: int  # the marking, packed; a counter field holding OMEGA_FIELD is ω
    parent: Optional["KMNode"]
    via: Optional[str]
    accelerated: bool = False
    key: int = 0  # the ready key of the marking (`PetriNet.key`)
    net: Optional[PetriNet] = None  # the net whose layout packed follows
    # the bits of the group values of the node and its ancestors, one bit
    # per value, shared past PATH_BITS values
    path_mask: int = 0
    # the decoded marking, once read; set from the start for a root whose
    # counts do not fit below OMEGA_FIELD
    _marking: Optional[tuple] = None

    @property
    def marking(self) -> tuple:
        """The counts by place position, with OMEGA where unbounded."""
        if self._marking is None:
            counts = self.net.unpack(self.packed)
            self._marking = tuple([OMEGA if n == OMEGA_FIELD else n for n in counts])
        return self._marking


# Distinct bits in a Karp–Miller path mask: the group values a tree meets
# take them in turn, and past PATH_BITS values a bit stands for several.
PATH_BITS = 64


@dataclass
class KMResult:
    bounded: bool  # read it only when the tree is neither capped nor stopped
    nodes: list
    pump: Optional[tuple]  # (prefix transition ids, cycle transition ids)
    capped: bool = False
    stopped: bool = False  # the last node's group value is in stop_at


def karp_miller(
    net: PetriNet,
    m0: CounterVector,
    node_cap: int = DEFAULT_KM_NODE_CAP,
    stop_at: frozenset = frozenset(),
) -> KMResult:
    """Karp–Miller coverability tree (Karp & Miller, 1969).

    Deterministic: children expand in the net's transition order; nodes
    whose marking repeats an already-processed one become leaves.  A child
    m accelerates against every ancestor am it strictly dominates (m >= am
    and m != am): each place where m > am becomes ω.  The pump is the
    first acceleration whose parent marking has no ω.

    Markings are packed (`PetriNet.pack`) with OMEGA_FIELD in every ω
    field, so a firing adds the transition's packed effect and writes
    OMEGA_FIELD back into the parent's ω fields.  Every counter field stays
    below TOP, whose bits serve as guard bits (Lamport, CACM 1975):
    (m | top) - am keeps every guard bit exactly when m >= am on the
    counters, and subtracting one more from each counter field leaves the
    guard bits of the counters where m > am.  A group holds the same
    number of tokens, at most one, in every node, so m >= am holds on a
    group exactly when the two group fields are equal: the test is field
    equality, then the subtraction, the same relation as on one field per
    place, and ω only ever stands in a counter field.  An ancestor whose
    ready key (`PetriNet.key`) has other group fields, or a nonzero
    counter that m lacks, is passed over without the subtraction.

    So only an ancestor with m's group fields, its group value, can be
    dominated.  Each node keeps a path mask (`KMNode.path_mask`): one bit
    for the group value of each node on its root path, itself included,
    the tree's values taking the bits of a PATH_BITS-bit int in the order
    it meets them.  A child whose group value's bit is not in its parent's
    mask has no such ancestor, so it skips the walk up the tree; a bit
    that stands for several values only sends a child on the walk, which
    then finds what it finds without the mask.

    A finite count that would reach OMEGA_FIELD stops the tree, `capped`
    set, before that node is kept, as a count reaching TOP stops
    `marking_bfs`; a root with such a count gives a capped tree of the
    root alone.  The net is ordinary, so a count grows by at most one per
    level: from counts of at most 1, as in the builders' roots, no tree
    reaches it under a node_cap below 2**30.

    stop_at holds packed markings (`PetriNet.pack`) with no counter token;
    a target with one raises ValueError.  The tree stops, `stopped` set,
    at the first node, the root included, whose group value
    (`key & group_mask`) is in stop_at; that node is the last of `nodes`,
    which are then the full tree's nodes up to it.  When the root and each
    target mark one place of every group, every node does too, so a node
    covers a target exactly when it has the target's group value: the
    tree stops at its first node that covers one.  `bounded` says nothing
    about a tree that stopped or was capped.  When no node stops it, the
    tree is the one built without stop_at.
    """
    order, effect, ready, ready_at = (
        net.order, net.packed_effect, net.ready, net.ready_at
    )
    top, ones, key_mask, group_mask = net.top, net.ones, net.key_mask, net.group_mask
    if any(t & ~group_mask for t in stop_at):
        raise ValueError("a Karp–Miller target must hold no counter token")
    start = net.marking(m0)
    if max(start, default=0) >= OMEGA_FIELD:
        root = KMNode(net.pack(start), None, None, net=net, _marking=start)
        return KMResult(False, [root], None, capped=True)
    packed = net.pack(start)
    bits = {packed & group_mask: 1}  # group value -> its path-mask bit
    root = KMNode(packed, None, None, key=net.key(packed), net=net, path_mask=1)
    nodes = [root]
    if packed & group_mask in stop_at:
        return KMResult(False, nodes, None, stopped=True)
    processed = {root.packed}
    queue = deque([root])
    pump = None
    unbounded = False
    while queue:
        node = queue.popleft()
        nm, path = node.packed, node.path_mask
        guards = (nm + ones) & top  # the guard bits of nm's ω fields
        omega = guards - (guards >> (FIELD - 1))  # nm's ω fields
        keep = ~(omega | guards)
        enabled = ready.get(node.key)
        if enabled is None:
            enabled = ready_at(node.key)
        for j in enabled:
            m = nm + effect[j]
            if omega:
                m = m & keep | omega
            if (m + ones) & top != guards:  # a finite count reached OMEGA_FIELD
                return KMResult(False, nodes, pump, capped=True)
            key = ((m | top) - ones) & key_mask
            value = key & group_mask
            bit = bits.get(value)
            if bit is None:
                bit = bits[value] = 1 << len(bits) % PATH_BITS
            accelerated = False
            # with no bit for m's group value on the path, no ancestor has
            # it, so none can be dominated and the walk is skipped
            anc = node if path & bit else None
            # the key bits where an ancestor that m dominates agrees with
            # m's key: the group fields, and the counters that m lacks
            agree = key_mask ^ key & top
            while anc is not None:
                if not (anc.key ^ key) & agree:
                    diff = (m | top) - anc.packed
                    if diff & top == top:  # m >= am
                        grew = (diff - ones) & top  # where m > am
                        if grew:
                            if pump is None and not omega:
                                prefix = _path_to_root(anc)
                                full = _path_to_root(node) + [order[j]]
                                pump = (tuple(prefix), tuple(full[len(prefix):]))
                            m |= grew - (grew >> (FIELD - 1))
                            accelerated = unbounded = True
                anc = anc.parent
            if m in processed:
                continue
            processed.add(m)
            child = KMNode(m, node, order[j], accelerated, key, net, path | bit)
            nodes.append(child)
            if value in stop_at:
                return KMResult(False, nodes, pump, stopped=True)
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
    net: PetriNet,
    m0: tuple,
    cap: int = DEFAULT_FORWARD_CAP,
    stop_at: frozenset = frozenset(),
) -> tuple:
    """(packed marking -> packed parent, exhausted).

    Breadth-first in net order from the dense marking m0, on packed
    markings (`PetriNet.pack`); stop_at holds packed markings, of any
    counts.  The net is ordinary, so a marking's ready key
    (`PetriNet.key`), its group fields and which counters are nonzero,
    decides which transitions fire; the key is taken from each marking as
    the search reaches it in its queue, a list read while it grows.  The
    search stops early, with exhausted False, when it reaches a marking in
    stop_at, when it holds more than cap markings, or when a count reaches
    TOP; that last marking is not kept, so every kept marking unpacks to
    its true counts.  The root's parent is None; a root with a count of
    TOP or more gives an empty map.

    The map keeps each marking's parent only, the marking it was first
    reached from; the transition fired there is the first of the parent's
    ready list that leads to it.  The search meets the markings of each
    depth in the order of their least firing sequences of that length,
    compared first firing first in net order, and the parents spell that
    sequence.  So the path to the first marking of stop_at it meets is the
    least of the shortest firing sequences into stop_at.
    `_witness_search` keeps the same markings on the deletion system
    without its net.
    """
    effect, top, ones, key_mask = net.packed_effect, net.top, net.ones, net.key_mask
    ready, ready_at = net.ready, net.ready_at
    start = net.pack(m0)
    if start & top:
        return {}, False
    seen = {start: None}
    if start in stop_at:
        return seen, False
    queue = [start]
    append = queue.append
    left = max(cap, 1)  # markings past the root the search may still keep
    for m in queue:
        key = ((m | top) - ones) & key_mask
        enabled = ready.get(key)
        if enabled is None:
            enabled = ready_at(key)
        for j in enabled:
            m2 = m + effect[j]
            if m2 in seen:
                continue
            if m2 & top:
                return seen, False
            seen[m2] = m
            left -= 1
            if not left or m2 in stop_at:
                return seen, False
            append(m2)
    return seen, True


def reachable_markings(
    net: PetriNet, m0: CounterVector, cap: int = DEFAULT_FORWARD_CAP
) -> tuple:
    """(marking -> parent marking, exhausted): `marking_bfs` with every
    marking a CounterVector, the root's parent None."""
    seen, exhausted = marking_bfs(net, net.marking(m0), cap)
    vector = {m: net.vector(net.unpack(m)) for m in seen}
    return {vector[m]: vector.get(prev) for m, prev in seen.items()}, exhausted


# ---------------------------------------------------------------------------
# product-tracking net and the fragment routes

def _pp(q) -> str:
    return f"P::{q}"


def _vp(q) -> str:
    return f"V::{q}"


def _arcs(place, v: CounterVector) -> dict:
    """The counter arcs of the vector v, on the places named by `place`."""
    return {place(q): n for q, n in v.entries}


def _npv_name(t, r) -> str:
    """The `build_npv` transition that fires the core step t at V-state r."""
    return f"{t.kind}|{t}|{r}"


def build_npv(P: Dfa, V: Dfa) -> tuple:
    """Net simulating the product of the counter semiautomaton with V.

    Returns (net, iota) where iota maps a product state (vector, V-state)
    to its marking.  The fragment routes walk the product itself; the net
    serves `shufflecheck petri --which npv` and the tests, which replay a
    prefix route's pump on it.
    """
    eng = engine_for(P)
    places = {_pp(q) for q in P.states} | {_vp(r) for r in V.states}
    pre, post, meta = {}, {}, {}
    for t in eng.ordered_core:
        source, target = _arcs(_pp, t.source), _arcs(_pp, t.target)
        for r in sorted(V.states):
            s = V.delta.get((r, t.letter))
            if s is None:
                continue
            tid = _npv_name(t, r)
            pre[tid] = {**source, _vp(r): 1}
            post[tid] = {**target, _vp(s): 1}
            meta[tid] = {"core": t}
    net = PetriNet(places, pre, post, meta, tuple(sorted(pre)))

    def iota(state) -> CounterVector:
        f, r = state
        counts = {_pp(q): n for q, n in f.entries}
        counts[_vp(r)] = 1
        return CounterVector.make(counts)

    return net, iota


def build_product(
    P: Dfa, V: Dfa, cap: int = DEFAULT_FORWARD_CAP, keep=None
) -> tuple:
    """(states, fragment, exhausted): breadth-first walk of the vector x
    V-state product from (0, V.initial), on packed vectors, and the steps
    on the edges it follows.

    A product state is (packed vector, V-state), in the layout of
    `engine.walk_table` with fields wide enough for any count a
    walk of cap states reaches, and states holds each one kept (a dict of
    each to the state it was reached from).  fragment is a `Fragment` in
    the same layout, made of no step object.  With a predicate `keep` on
    packed states, the walk stays inside the states it accepts: it starts
    only if the start state is kept, and it follows only edges into kept
    states.  exhausted is False when the walk stopped past cap states.
    `_forward` walks it.
    """
    tree, fragment, _pump, exhausted = _forward(P, V, cap, keep)
    return tree, fragment, exhausted


def _forward(P: Dfa, V: Dfa, cap: int, keep=None, pumps: bool = False) -> tuple:
    """(tree, fragment, pump, exhausted): the walk of `build_product`,
    and with pumps, the pump check of the prefix route: before the walk
    keeps a new state it looks for an ancestor that the state strictly
    covers with the same V-state (`_covered_ancestor`), and stops at the
    first, with pump = (state, new, base) and exhausted False.  A walk
    stopped early gives the fragment it has met so far.

    The steps of a vector f on a letter are listed once per walk, when it
    first reaches f with a V-state that reads the letter: the core steps
    of the engine's `walk_table` that f enables, each with its step
    (f, a, f + effect, kind).  With pumps they are ordered by target text,
    then kind, the engine's `step_order` among the steps of f on a
    letter, so the order in which the walk meets new states, its first
    pump, and the states it has kept by then depend only on the pair.
    Without pumps they keep the table's order, which follows P alone: a
    walk that ends returns the same states and fragment in any order, and
    a cut one cap + 1 states.  Without keep every step of such an (f, a)
    fires, so the fragment is the union of those lists; with keep, it is
    the steps on the edges into kept states.
    """
    # a kept state's vector has norm at most its depth, so below cap + 1
    layout, core = walk_table(P, count_width(cap + 1))
    high = layout.high
    start = (0, V.initial)
    if keep is not None and not keep(start):
        return {}, Fragment(layout, frozenset()), None, True
    table: dict = {}  # (f, a) -> [(g, step)], in step order
    fired = set()
    texts: dict = {}  # packed vector -> its text

    def text(v: int) -> str:
        out = texts.get(v)
        if out is None:
            out = texts[v] = layout.text(v)
        return out

    def fragment() -> Fragment:
        if keep is None:
            steps = {step for listed in table.values() for _g, step in listed}
        else:
            steps = fired
        return Fragment(layout, frozenset(steps), texts)

    tree = {start: None}
    queue = [start]  # in visiting order; the loop reads what it appends
    for state in queue:
        f, r = state
        for a in P.alphabet:
            s = V.delta.get((r, a))
            if s is None:
                continue
            steps = table.get((f, a))
            if steps is None:
                out = [
                    (f + effect, kind)
                    for guard, effect, kind, _back in core[a]
                    if not guard or f & guard
                ]
                if pumps and len(out) > 1:
                    out.sort(key=lambda gk: (text(gk[0]), gk[1]))
                steps = table[(f, a)] = [(g, (f, a, g, kind)) for g, kind in out]
            for g, step in steps:
                new = (g, s)
                if keep is not None:
                    if not keep(new):
                        continue
                    fired.add(step)
                if new in tree:
                    continue
                if pumps:
                    base = _covered_ancestor(tree, state, new, high)
                    if base is not None:
                        return tree, fragment(), (state, new, base), False
                tree[new] = state
                if len(tree) > cap:
                    return tree, fragment(), None, False
                queue.append(new)
    return tree, fragment(), None, True


@dataclass(frozen=True)
class AlfResult:
    """A fragment route's answer.  A finite answer holds the fragment and
    the product states its walk kept, packed in the fragment's layout;
    `delta` and `states` make their objects on request."""

    status: str  # finite | infinite | unknown
    fragment: Optional[Fragment] = None
    pump: Optional[tuple] = None
    product: Optional[Iterable] = None
    stats: dict = field(default_factory=dict)

    @property
    def delta(self) -> Optional[frozenset]:
        return None if self.fragment is None else self.fragment.transitions()

    @property
    def states(self) -> Optional[frozenset]:
        if self.product is None:
            return None
        vector = self.fragment.layout.vector
        return frozenset((vector(f), r) for f, r in self.product)


def _covered_ancestor(tree: dict, state, new, high: int):
    """The first of `state` and its ancestors in tree (state -> parent)
    that the product state new, not in tree, strictly covers with the same
    V-state, or None.  The vectors are packed, with high their layout's
    spare bits (`Layout`), and new differs from every state in tree."""
    g, s = new
    g |= high
    while state is not None:
        f, r = state
        if r == s and (g - f) & high == high:
            return state
        state = tree[state]
    return None


def _pump(P: Dfa, V: Dfa, layout, tree: dict, state, new, base) -> tuple:
    """(prefix, cycle): the tree path from the walk's start to base, then
    on through state to new, as `build_npv` transition names.  Each step
    is named by the first core step, in the order `build_npv` takes them,
    whose firing gives the next state.  The path's packed vectors are
    unpacked from layout."""
    path = [new]
    while state is not None:
        path.append(state)
        state = tree[state]
    path.reverse()
    k = path.index(base)
    path = [(layout.vector(f), r) for f, r in path]
    core = engine_for(P).ordered_core
    names = [
        next(
            _npv_name(t, r) for t in core
            if V.delta.get((r, t.letter)) == s
            and f.geq(t.source) and f.sub(t.source).add(t.target) == g
        )
        for (f, r), (g, s) in zip(path, path[1:])
    ]
    return tuple(names[:k]), tuple(names[k:])


def _pump_walk(roots, edges, cap: int, high: int) -> tuple:
    """(tree, pump, exhausted): depth-first walk of packed product states
    (vector, V-state) from roots; edges(state) gives the states one step
    on, and high is the spare bits of the vectors' layout.

    tree maps each kept state to its parent, None for a root.  Before the
    walk keeps a new state it looks for a pump, an ancestor that the state
    strictly covers with the same V-state (`_covered_ancestor`), and stops
    at the first, with pump = (state, new, base).  It stops with exhausted
    False past cap states, and True when no state is left.

    On a monotone counter system, forward or backward, a pump means the
    product is infinite: the path from base fires again from new, and
    again, each time growing the vector.  Conversely an infinite product
    gives the walk an infinite, finitely branching tree, so an infinite
    branch (König); on it some state covers an earlier one with the same
    V-state (Dickson's lemma), strictly, since the tree holds no state
    twice, and the walk checks that pair when it keeps the later one.  A
    state already held needs no check: the argument reads only the tree,
    and holds for any order of visiting.  So the walk takes the states on
    a stack, last kept first, and follows one branch down before it
    widens: on modular-net's pairs it keeps 723 states before its pumps
    where a walk in rounds keeps 1,805.  This is Karp–Miller's answer on
    `build_npv`'s net, whose markings are the product states (Karp &
    Miller, 1969), without building the net.
    """
    tree = dict.fromkeys(roots)
    stack = list(tree)
    while stack:
        state = stack.pop()
        for new in edges(state):
            if new in tree:
                continue
            base = _covered_ancestor(tree, state, new, high)
            if base is not None:
                return tree, (state, new, base), False
            tree[new] = state
            if len(tree) > cap:
                return tree, None, False
            stack.append(new)
    return tree, None, True


def decide_alf_pre_finite(
    P: Dfa, V: Dfa, node_cap: int = DEFAULT_KM_NODE_CAP
) -> AlfResult:
    """Is the transition alphabet of all prefix-tracked interleavings finite?

    V must recognize a prefix-closed language (every state accepting).  The
    alphabet is finite exactly when the product of the counter system with
    V is, and is then the set of steps on the product's edges.  One
    `_forward` walk from (0, V.initial), with the pump check, answers; the
    argument is `_pump_walk`'s, whose order of visiting the walk does not
    share: it walks in rounds, so that the pump it meets first, and the
    states it has kept by then, stay those of the engine's `step_order`.
    The pump is (prefix, cycle) in `build_npv`'s transition names, which
    `replay_pump` fires.  A finite answer holds the walk's packed fragment
    and states.

    The walk keeps at most node_cap states; when it would keep more, the
    answer is Unknown.
    """
    tree, fragment, pump, exhausted = _forward(P, V, node_cap, pumps=True)
    stats = {"product_states": len(tree)}
    if pump is not None:
        pump = _pump(P, V, fragment.layout, tree, *pump)
        return AlfResult("infinite", pump=pump, stats=stats)
    if not exhausted:
        return AlfResult("unknown", stats=stats)
    return AlfResult("finite", fragment=fragment, product=tree.keys(), stats=stats)


def prefix_delta_closed(P: Dfa, V: Dfa, delta) -> bool:
    """Is delta, a `Fragment` or a set of steps, closed in the product of
    P's counter system with V?

    Closed means that at every product state (f, r) reached from
    (0, V's initial state), each step of the counter system from f on a
    letter that V reads at r is in delta: the coverage the prefix route's
    closure search assumes.  A closed delta keeps the forward product
    (`build_product`) to vectors that are 0 or a target of delta, so the
    walk ends within (targets + 1) * |V| states with its fragment inside
    delta; any other delta takes a step outside it or passes that cap.
    The walk's fragment is compared with delta in the walk's layout, which
    cannot hold a step the walk does not take.
    """
    if not isinstance(delta, Fragment):
        delta = Fragment.of(delta)
    cap = (len({g for _f, _a, g, _k in delta.steps}) + 1) * len(V.states)
    _, fragment, exhausted = build_product(P, V, cap)
    return exhausted and fragment.steps <= delta.relaid(fragment.layout).steps


def decide_alf_zero_finite(
    P: Dfa, V: Dfa, node_cap: int = DEFAULT_KM_NODE_CAP
) -> AlfResult:
    """Finiteness of the transition alphabet restricted to interleavings
    that can still close all components inside V.

    V must be a complete automaton with finals.  R is the set of product
    states that reach an accepting closure (0, q_f), and the forward
    product is walked inside R.  One `_pump_walk` backward from every
    (0, q_f), on packed vectors, with each core step run backward
    (`ShuffleEngine.walk_steps`), gives R, or a pump, which makes R
    infinite and the answer Unknown.  R is the union of the markings
    reachable from each (0, q_f) in `build_npv`'s net with every pre- and
    post-set swapped, found without the net.  A `build_product` walk kept
    inside R, in R's layout, gives the fragment; it has no pump check,
    since a strict cover inside R does not make R infinite, and R bounds
    it, so it always ends.

    node_cap bounds R as a whole, in states kept, not each (0, q_f)'s part
    of it; a larger R gives Unknown.

    The forward product adds nothing once V is complete: a START step is
    then enabled from every V-state, so the forward product is finite only
    when P's core has no START step.  Every step is then a START_END step,
    and R, of at most |V| states, is finite too.
    """
    V = complete(V)
    layout, core = walk_table(P, count_width(node_cap + 1))
    into: dict = {}  # (V-state, letter) -> the V-states the letter leads into it
    for (r, a), s in V.delta.items():
        into.setdefault((s, a), []).append(r)

    def backward(state):
        g, s = state
        for a in P.alphabet:
            before = into.get((s, a))
            if before is None:
                continue
            for _guard, effect, _kind, back in core[a]:
                if not back or g & back:
                    f = g - effect
                    for r in before:
                        yield f, r

    roots = [(0, qf) for qf in V.finals]
    R, _, exhausted = _pump_walk(roots, backward, node_cap, layout.high)
    if not exhausted:
        return AlfResult("unknown")
    # R's states are packed for a walk of node_cap states, as this walk's
    # are, and it keeps no more than R holds
    states, fragment, _ = build_product(P, V, node_cap, keep=R.__contains__)
    return AlfResult("finite", fragment=fragment, product=states.keys())


# ---------------------------------------------------------------------------
# deletion net

def _v1(q) -> str:
    return f"V1::{q}"


def _v2(q) -> str:
    return f"V2::{q}"


def _q2(q) -> str:
    return f"Q2::{q}"


def _ep(vec) -> str:
    """The tracked place of a vector or of CHECK_ZERO."""
    return f"E::{vec}"


CHECK_PLACE = _ep(CHECK_ZERO)


def _live_controls(V: Dfa, core) -> set:
    """The control states of the deletion net that a run from
    (V.initial, V.initial, 0) can reach, as a set of triples.

    A control state (r1, r2, e) holds the V1-state, the V2-state and the
    tracked component, its vector or CHECK_ZERO once closed, whose places
    (`_ep`) hold one token per group in every reachable marking.  The
    search takes every counter place as unbounded, so it reaches every
    control state the net can mark, and maybe more.  A paired step on a letter a of the core maps (r1, r2, e)
    to (δ(r1, a), δ(r2, a), e).  A component step on a core step t, with
    letter a, maps (r1, r2, t.source) to (δ(r1, a), r2, e'), where e' is
    CHECK_ZERO when t's target is 0 and t.target otherwise.  The steps are
    indexed by letter and by tracked component, so the search costs about
    |controls| × (letters + steps per component).  V must be complete.
    """
    delta = V.delta
    letters = {t.letter for t in core}
    moves = {}  # tracked component -> {(letter, tracked component after)}
    for t in core:
        tracked = CHECK_ZERO if t.target.is_zero() else t.target
        moves.setdefault(t.source, set()).add((t.letter, tracked))
    start = (V.initial, V.initial, ZERO)
    seen = {start}
    stack = [start]
    while stack:
        r1, r2, e = stack.pop()
        successors = [(delta[(r1, a)], delta[(r2, a)], e) for a in letters]
        successors += [(delta[(r1, a)], r2, e2) for a, e2 in moves.get(e, ())]
        for control in successors:
            if control not in seen:
                seen.add(control)
                stack.append(control)
    return seen


def _target_controls(V: Dfa, controls) -> set:
    """The (V1-state, V2-state) of each control state in controls that a
    counterexample marks: the composite's V-state final, the remainder's
    not, and the tracked component closed, CHECK_ZERO.  Every
    counterexample marking marks its control places, so a net whose live
    controls give none has no counterexample marking, reachable or
    coverable."""
    finals = V.finals
    return {
        (r1, r2)
        for r1, r2, e in controls
        if e is CHECK_ZERO and r1 in finals and r2 not in finals
    }


# The deepest level of the norm search: it searches inside composite norm
# 1, then 2, and so on up to NORM_DEPTH.
NORM_DEPTH = 3

# The tracked component in the norm search once it has closed; 0 stands
# for "not yet opened" and a packed unit vector for an open component.
_CLOSED = -1


def _norm_search(P: Dfa, V: Dfa, cap: int) -> Optional[tuple]:
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
    transition, with the steps of `ShuffleEngine.word_steps_on`.  Level n
    keeps only states whose composite, the remainder plus the open
    component, has norm at most n; a breadth-first search from
    (V.initial, V.initial, 0, 0) stops at the first depth that holds a
    counterexample state: V1 final, V2 not, the remainder 0 and the
    component closed.  It leaves out states that lead to none: those whose
    V1-state no word takes to a final state, and those with a component,
    of the remainder or tracked, that no word closes (`_closing_letters`).
    Each state it keeps is a marking the net reaches by as many firings,
    so the length is that of a firing sequence into a counterexample
    marking: a bound on the shortest one (`marking_bfs`'s bound).
    """
    eng = engine_for(P)
    states = sorted(V.states)
    rank = {r: i for i, r in enumerate(states)}
    steps = [eng.word_steps_on(a) for a in P.alphabet]
    after = [[rank[V.delta[(r, a)]] for a in P.alphabet] for r in states]
    finals = {rank[r] for r in V.finals}
    accepting = {rank[r] for r in live_states(V)}  # V1 can still accept
    closing = _closing_letters(P)
    if ZERO not in closing:  # the tracked component can never close
        return None
    # the fields, in `ShuffleEngine.packed_steps`' layout, of the component
    # states from which no component closes
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


def _closing_letters(P: Dfa) -> dict:
    """The fewest letters a component of P needs to close, by its vector:
    0 before it opens, its unit vector while open.  A core step from x
    that closes counts 1, and one that leads on to y counts 1 plus y's
    count.  A vector that the map lacks never closes."""
    h: dict = {}
    core = engine_for(P).ordered_core
    changed = True
    while changed:
        changed = False
        for t in core:
            after = 0 if t.target.is_zero() else h.get(t.target)
            if after is not None and after + 1 < h.get(t.source, after + 2):
                h[t.source] = after + 1
                changed = True
    return h


def _witness_search(
    P: Dfa, V: Dfa, targets, cap: int, depth: Optional[int] = None
) -> tuple:
    """(markings, witness): `marking_bfs` from the initial marking of
    `build_np_v_full`'s net for (P, V), stopped at the counterexample
    markings of targets, without the net.  markings is the number of
    markings the BFS keeps, and witness the first counterexample run it
    reaches, read as `sp_falsify` reads one: (word, remainder, component,
    positions), where a paired step reads into the remainder; None when
    the search ends without one.  targets holds the (V1-state, V2-state)
    of each counterexample control (`_target_controls`).  V must be
    complete.

    The search walks the deletion system itself.  A state is one int, the
    net's marking in another layout: the remainder's count of each
    component state in a FIELD-bit field, in sorted state order, with TOP
    as its overflow stop, and above them the index of the control state
    (V1-state, V2-state, tracked component or CHECK_ZERO), numbered as the
    search meets it.  A component move (the net's E group) fires a core
    step from the tracked component, a paired move (S) one from 0 or from
    a nonzero counter, and a move's effect is the change of control index
    and counters as one int.  The moves of a state depend on its control
    and on which counters are nonzero, its ready key as `PetriNet.key`
    forms it; each control's moves are listed the first time the search
    reaches it, and each key's the first time it reaches the key.

    The moves follow the net's order.  The net sorts its transitions by
    name, `E|{kind}|{t}|{r1}` and `S|{kind}|{t}|{r1},{r2}`, so at a
    control every E move comes before every S move.  Within a group the
    names at a control share their V-state suffix and differ in the key
    `f"{t.kind}|{t}|"`, and these keys are prefix-free: a kind holds no
    `|`, and in the text `(source) letter (target)` of a step the source
    ends at its first `)`, the letter at the next space and the target at
    the next `)`, since `check_query` refuses whitespace and parentheses
    in P's letters and states.  So two names at a control first differ
    inside their keys and compare as the keys do, and one sort of the core
    by key gives each group's order at every control.

    The search keeps exactly the markings that `marking_bfs` keeps on the
    net, with the same parents, since it reaches them in the same order:
    the net holds a transition for every move from a live control
    (`build_np_v_full`), and every control the search meets is live.  It
    keeps each state's parent only, and the witness is read back from
    the parents: a state was kept at the first move of its parent's list
    whose effect leads to it.  Past cap kept states, or at a count of
    TOP, it stops without a witness.

    depth, when given, bounds the search, by the length of a known
    counterexample run (`_norm_search`).  closing(m) sums, over the
    remainder's open components and the tracked component, the fewest
    letters each needs to close (`_closing_letters`); the tracked
    component counts from 0 until it opens and counts 0 once closed, and a
    component that can never close counts depth + 1.  closing is linear in
    the marking, 0 at a counterexample marking, and each move lowers it by
    at most 1, so it is at most the number of moves from m into targets
    wherever such a sequence exists: an admissible bound, as in A* (Hart,
    Nilsson & Raphael, IEEE Trans. SSC 1968).  The search carries each
    queued state's room, depth - g - closing(m) for a state first reached
    at depth g, and keeps a state only when its room is nonnegative; a
    move's cost is 1 plus its shift of closing, which depends on its core
    step and group alone.  A state left out at one depth would be left
    out at every later one.

    When a counterexample run of length d <= depth exists, the bounded
    search returns the same witness as the unbounded one.  Every marking m
    at depth g on a shortest such run has g + closing(m) <= d <= depth,
    and so has every marking on every shortest run to m.  So the bounded
    search reaches m at depth g along the same runs, keeps the same least
    one, and meets the same counterexample marking first.  Every marking
    it keeps before it stops, the unbounded search keeps before it stops,
    at no greater depth and with no greater least run; so it reaches the
    cap only where the unbounded search would.
    """
    eng = engine_for(P)
    delta = V.delta
    order = sorted(eng.core, key=lambda t: f"{t.kind}|{t}|")
    shift = {q: FIELD * i for i, q in enumerate(sorted(eng.component_states))}
    width = FIELD * len(shift)
    top = TOP * ((1 << width) - 1) // FIELD_MASK
    ones = top >> (FIELD - 1)
    key_mask = top | -(1 << width)
    room, h = 0, None
    if depth is not None:
        h = _closing_letters(P)
        far = depth + 1
        room = depth - h.get(ZERO, far)
    tracked_steps = {}  # tracked component -> its (core step, tracked after, cost)
    paired = []  # (guard, counter effect, core step, cost)
    for t in order:
        tracked = CHECK_ZERO if t.target.is_zero() else t.target
        tracked_cost = paired_cost = 0
        if h is not None:
            after = 0 if t.target.is_zero() else h.get(t.target, far)
            before = h.get(t.source, far)
            tracked_cost = 1 + after - before
            # a remainder component at 0 is none, a tracked one is yet to open
            paired_cost = 1 + after - (0 if t.source.is_zero() else before)
        tracked_steps.setdefault(t.source, []).append((t, tracked, tracked_cost))
        guard = effect = 0
        for q, _ in t.target.entries:
            effect += 1 << shift[q]
        for q, _ in t.source.entries:
            guard, effect = TOP << shift[q], effect - (1 << shift[q])
        paired.append((guard, effect, t, paired_cost))
    index, controls = {}, []  # control <-> its index

    def code(control) -> int:
        i = index.get(control)
        if i is None:
            i = index[control] = len(controls)
            controls.append(control)
        return i << width

    at_control = {}  # control index -> (guard, move) of each move from it

    def moves_at(key: int) -> list:
        """(effect, cost, core step, group) of each move at ready key: of
        its control's moves, those whose guard is 0 or a nonzero counter."""
        i = key >> width
        moves = at_control.get(i)
        if moves is None:
            r1, r2, e = controls[i]
            here = i << width
            moves = at_control[i] = [
                (0, (code((delta[(r1, t.letter)], r2, tracked)) - here, c, t, "E"))
                for t, tracked, c in tracked_steps.get(e, ())
            ] + [
                (guard, (
                    code((delta[(r1, t.letter)], delta[(r2, t.letter)], e))
                    - here + effect, c, t, "S",
                ))
                for guard, effect, t, c in paired
            ]
        return [move for guard, move in moves if not guard or key & guard]

    def witness(m: int) -> tuple:
        """The run from the root to m, each move the first of its
        parent's list that leads on to the next state."""
        steps = []
        prev = seen[m]
        while prev is not None:
            key = ((prev | top) - ones) & key_mask
            steps.append(next(
                (t, g) for d, _, t, g in listed[key] if d == m - prev
            ))
            m, prev = prev, seen[prev]
        steps.reverse()
        return (
            tuple(t.letter for t, _ in steps),
            tuple(t.letter for t, g in steps if g == "S"),
            tuple(t.letter for t, g in steps if g == "E"),
            tuple(i for i, (_, g) in enumerate(steps) if g == "E"),
        )

    goals = {code((r1, r2, CHECK_ZERO)) for r1, r2 in targets}
    start = code((V.initial, V.initial, ZERO))
    if room < 0:
        return 1, None
    seen = {start: None}
    listed = {}  # ready key -> `moves_at` of it
    ready = {}  # ready key -> its (effect, cost) list
    queue, rooms = [start], [room]
    append, append_room = queue.append, rooms.append
    left = max(cap, 1)  # states past the root the search may still keep
    for m, room in zip(queue, rooms):
        key = ((m | top) - ones) & key_mask
        moves = ready.get(key)
        if moves is None:
            listed[key] = out = moves_at(key)
            moves = ready[key] = [(d, c) for d, c, _, _ in out]
        for d, c in moves:
            m2 = m + d
            if m2 in seen:
                continue
            room2 = room - c
            if room2 < 0:
                continue
            if m2 & top:
                return len(seen), None
            seen[m2] = m
            if m2 in goals:
                return len(seen), witness(m2)
            left -= 1
            if not left:
                return len(seen), None
            append(m2)
            append_room(room2)
    return len(seen), None


def build_np_v_full(P: Dfa, V: Dfa, controls=None) -> tuple:
    """Net executing the deletion system with free counters.

    A run reads a composite word and splits it into a remainder and one
    tracked component.  The V1 and V2 places hold the V-states of the
    composite and the remainder, the Q2 places the remainder's counters,
    and the tracked place the component: E::e for its vector e, then
    CHECK_PLACE, `_ep(CHECK_ZERO)`, once it has closed.  A paired
    transition advances both V-states and the remainder's counters; a
    component transition advances the composite's V-state and the
    tracked place.  Returns
    (net, iota), where iota maps (V1-state, V2-state, (remainder vector,
    tracked vector or CHECK_ZERO)) to a marking.

    The composite's counters need no places: in every marking reachable
    from the initial one they equal the remainder's plus the tracked
    component's vector (0 for E::0 and CHECK_PLACE).  Both kinds of step
    add t.target - t.source to the composite, and a step that is enabled
    on Q2 or on E::t.source already has t.source on that sum, so the
    composite's counters would never disable one.

    The net holds every place, but only the transitions whose control
    pre-set a run from (V.initial, V.initial, E::0) can mark: a paired
    transition on V-states (r1, r2) needs some live control (r1, r2, e),
    and a component transition on r1 from E::f some live control
    (r1, r2, f), live meaning found by `_live_controls`.  The search
    over-approximates the net, so a dropped transition is never enabled
    in a marking reachable from there, and every search from that marking
    finds the markings and firings it would find in the net with all of
    them.  The transitions kept have the same names, arcs, meta and
    relative order.  A caller that has already run the search passes its
    result as controls, so it runs once.

    The net has three one-token groups (`PetriNet`): the V1 places, the
    V2 places, and the tracked places with CHECK_PLACE.  iota marks one
    place of each.  A paired transition moves the token of V1 and of V2
    from r1 to δ(r1, a) and from r2 to δ(r2, a), and touches no tracked
    place; a component transition moves V1's token and the tracked token
    from E::t.source to E::t.target or CHECK_PLACE, and touches no V2
    place.  Each transition that touches a group takes one token from it
    and puts one back, which the constructor checks, so each group holds
    exactly one token in every marking reachable from iota's, and the
    searches keep each group as one small field.
    """
    V = complete(V)
    eng = engine_for(P)
    evecs = sorted(elementary_vector_states(P), key=str)
    places = (
        {_v1(q) for q in V.states}
        | {_v2(q) for q in V.states}
        | {_q2(q) for q in P.states}
        | {_ep(v) for v in evecs}
        | {CHECK_PLACE}
    )
    pre, post, meta = {}, {}, {}
    core = eng.ordered_core
    if controls is None:
        controls = _live_controls(V, core)
    tracked_pairs = {(r1, e) for r1, _, e in controls}
    partners = {}  # r1 -> the r2 of its live pairs, in sorted order
    for r1, r2 in sorted({(r1, r2) for r1, r2, _ in controls}):
        partners.setdefault(r1, []).append(r2)
    vstates = sorted(V.states)
    for t in core:
        a = t.letter
        # a paired step moves the remainder's counters (Q2); a component
        # step moves the tracked component (E), which closes on the check
        # place
        paired_pre = _arcs(_q2, t.source)
        paired_post = _arcs(_q2, t.target)
        tracked = CHECK_PLACE if t.target.is_zero() else _ep(t.target)
        for r1 in vstates:
            s1 = V.delta[(r1, a)]
            for r2 in partners.get(r1, ()):
                s2 = V.delta[(r2, a)]
                tid = f"S|{t.kind}|{t}|{r1},{r2}"
                pre[tid] = {_v1(r1): 1, _v2(r2): 1, **paired_pre}
                post[tid] = {_v1(s1): 1, _v2(s2): 1, **paired_post}
                meta[tid] = {"group": "S", "core": t}
            if (r1, t.source) not in tracked_pairs:
                continue
            tid = f"E|{t.kind}|{t}|{r1}"
            pre[tid] = {_v1(r1): 1, _ep(t.source): 1}
            post[tid] = {_v1(s1): 1, tracked: 1}
            meta[tid] = {"group": "E", "core": t}
    groups = (
        [_v1(q) for q in V.states],
        [_v2(q) for q in V.states],
        [_ep(v) for v in evecs] + [CHECK_PLACE],
    )
    net = PetriNet(places, pre, post, meta, tuple(sorted(pre)), groups)

    def iota(state) -> CounterVector:
        q1, q2, (remainder, component) = state
        counts = {_v1(q1): 1, _v2(q2): 1, _ep(component): 1}
        counts.update(_arcs(_q2, remainder))
        return CounterVector.make(counts)

    return net, iota


@dataclass(frozen=True)
class NetVerdict:
    status: str  # holds | fails | unknown
    route: str
    witness: Optional[tuple] = None  # a fails' `_witness_search` witness
    stats: dict = field(default_factory=dict)


def decide_sp_via_net(
    P: Dfa,
    V: Dfa,
    node_cap: int = DEFAULT_KM_NODE_CAP,
    forward_cap: int = DEFAULT_FORWARD_CAP,
) -> NetVerdict:
    """Closure decision through the deletion net.

    A counterexample is a marking where the composite's V-state accepts,
    the remainder's counters are all closed, the deleted component is
    complete (so the composite's counters are closed too), and the
    remainder's V-state rejects.  Holds is sound when no such marking is
    even coverable.  Otherwise the witness search (`_witness_search`), the
    net's marking BFS run on the deletion system itself, looks for a
    reachable one, a Fails witness; it cannot exhaust the markings without
    one.  The net runs on `complete(V)`, so if P has a word of two or more
    letters, a paired START step fires again and again and the reachable
    markings are infinite.  If every word of P has one letter, no counter
    ever holds a token, so the control search is exact: a live target is a
    reachable one, which the search reaches, and no live target gives
    `net-uncoverable`.

    Every counterexample marking marks its control places, so the route
    first searches the control states (`_live_controls`) and keeps those
    of a counterexample (`_target_controls`).  When there are none, the
    pair holds by `net-uncoverable` before the net is built, and the stats
    give the number of control states, `controls`, in place of `km_nodes`.
    Every marking a search meets has a live control state, so the target
    controls give all the counterexample markings it could meet.

    The norm search (`_norm_search`) runs next, capped by forward_cap
    states per level.  When it finds a counterexample, of length D, a
    counterexample marking is reachable, so no net and no Karp–Miller tree
    is built: the witness search runs bounded by D and returns the witness
    that it returns without the bound, or finds one where that search
    passes the cap; the stats give `norm_level` and `norm_length` (D).
    Otherwise the net is built from the live control states, and each
    target control packs as one counterexample marking: iota's marking of
    its V-states with every counter 0 and the tracked component
    CHECK_ZERO.  The Karp–Miller tree stops at its first node that covers
    one, a node with a target's group value, so `km_nodes` counts the
    nodes built until then; a pair with none coverable builds the whole
    tree and holds.  The witness search without the bound then looks for
    a reachable one, and stops at the first it reaches.  Either way the
    stats give `markings`, the number of markings the search kept.
    """
    V = complete(V)
    controls = _live_controls(V, engine_for(P).core)
    pairs = _target_controls(V, controls)
    if not pairs:
        return NetVerdict(
            "holds", "net-uncoverable", stats={"controls": len(controls)}
        )
    found = _norm_search(P, V, forward_cap)
    if found is None:
        net, iota = build_np_v_full(P, V, controls)
        targets = frozenset(
            net.pack(net.marking(iota((r1, r2, (ZERO, CHECK_ZERO)))))
            for r1, r2 in pairs
        )
        m0 = iota((V.initial, V.initial, (ZERO, ZERO)))
        km = karp_miller(net, m0, node_cap, stop_at=targets)
        stats = {"km_nodes": len(km.nodes), "km_capped": km.capped}
        uncoverable = not km.capped and not km.stopped
        del net, km  # neither is needed past this point; free them first
        if uncoverable:
            # coverability is decided exactly, so no counterexample marking
            # is reachable at all
            return NetVerdict("holds", "net-uncoverable", stats=stats)
        depth = None
    else:
        # a counterexample marking is reachable, so the tree could only
        # stop at one
        level, depth = found
        stats = {"norm_level": level, "norm_length": depth}
    stats["markings"], witness = _witness_search(P, V, pairs, forward_cap, depth)
    if witness is not None:
        return NetVerdict("fails", "net-reachability", witness=witness, stats=stats)
    return NetVerdict("unknown", "net-budget", stats=stats)


# ---------------------------------------------------------------------------
# export

def to_pnml(net: PetriNet, m0: Optional[CounterVector] = None) -> str:
    import xml.etree.ElementTree as ET

    root = ET.Element("pnml")
    n = ET.SubElement(root, "net", id="net0", type="P/T net")
    page = ET.SubElement(n, "page", id="page0")
    for i, p in enumerate(net.places):
        el = ET.SubElement(page, "place", id=f"p{i}")
        name = ET.SubElement(el, "name")
        ET.SubElement(name, "text").text = p
        if m0 is not None and m0.get(p):
            mk = ET.SubElement(el, "initialMarking")
            ET.SubElement(mk, "text").text = str(m0.get(p))
    for j, t in enumerate(net.order):
        el = ET.SubElement(page, "transition", id=f"t{j}")
        name = ET.SubElement(el, "name")
        ET.SubElement(name, "text").text = t
    # each transition's arcs in place order, inputs first; weight 1, PNML's default
    arcs = []
    for j, (inputs, outputs) in enumerate(zip(net.pre, net.post)):
        arcs += [(f"p{i}", f"t{j}") for i in inputs]
        arcs += [(f"t{j}", f"p{i}") for i in outputs]
    for k, (source, target) in enumerate(arcs):
        ET.SubElement(page, "arc", id=f"a{k}", source=source, target=target)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


def _dot_escaped(name: str) -> str:
    """name for a DOT quoted string: each backslash and double quote is
    escaped, so the id or label reads back as name."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(net: PetriNet, m0: Optional[CounterVector] = None) -> str:
    lines = ["digraph net {", "  rankdir=LR;"]
    places = [_dot_escaped(p) for p in net.places]
    for p, name in zip(net.places, places):
        tokens = f"\\n{m0.get(p)}" if m0 is not None and m0.get(p) else ""
        lines.append(f'  "{name}" [shape=circle, label="{name}{tokens}"];')
    for j, t in enumerate(net.order):
        t = _dot_escaped(t)
        lines.append(f'  "{t}" [shape=box];')
        for i in net.pre[j]:
            lines.append(f'  "{places[i]}" -> "{t}";')
        for i in net.post[j]:
            lines.append(f'  "{t}" -> "{places[i]}";')
    lines.append("}")
    return "\n".join(lines)
