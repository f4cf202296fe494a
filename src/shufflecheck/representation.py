"""Three-track column alphabet over a finite transition fragment, and the
exact closure checks that search one-component deletions over it.

Track 1 carries a composite computation, track 2 the remainder after
deleting one tracked component, track 3 that component itself (checked
letters).  Exactly one of tracks 2/3 moves per column and the counter
vectors add up, so projecting a column word to tracks 1 and 2 realizes the
deletion relation exactly on the covered fragment.

Track 1 is the sum of the other two, so the deletion system's state is the
remainder vector and the tracked component, and `_deletion_moves` is the
one definition of a move, and so of a column: a move is a column's three
tracks, and only W_delta and a closure search's witness make the column,
each through `TrackLetter`'s checked constructor.
delta comes packed, an `engine.Fragment` as the fragment routes and
replay give it, or as steps, which are packed once.  The moves run on
packed states in delta's layout: the remainder is one int, the tracked
component 0, a packed unit or CHECK_ZERO, the closed state the engine
defines, and delta is read once, in the engine's `step_order`, into a
table keyed by the packed composite, each of its steps with the engine
steps it shifts, in the order of W_delta's alphabet, which is taken from
a column's parts, not its text (`_column_order`).  The closure search
runs on those states, numbered, and leaves out every state whose
composite V-state can reach no final state.  The recognizer W_delta adds
the composite vector to each state and unpacks its moves; it, the track
ranges S1/S2/S3 and the steps delta2'/delta3' serve the `wdelta` command
and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .automata import Dfa, Letter, ShufflecheckError, complete, live_states
from .engine import (
    CHECK_ZERO,
    CounterVector,
    Fragment,
    Layout,
    ShuffleTransition,
    ZERO,
    elementary_vector_states,
    engine_for,
    reached,
    tagged_text,
)


class NotSubsetOfShuffle(ShufflecheckError):
    pass


@dataclass(frozen=True)
class TrackLetter:
    """One column: a composite step plus its two-way decomposition.

    The constructor checks that exactly one of tracks 2/3 moves, that the
    active track carries the composite's letter and kind, and that the
    counters add up, and raises ValueError otherwise.  Every column is
    made through it, those of `_deletion_moves`' moves included.
    """

    x1: ShuffleTransition
    x2: Union[ShuffleTransition, CounterVector]
    x3: object  # a ShuffleTransition, a CounterVector or CHECK_ZERO

    def __post_init__(self):
        active2 = isinstance(self.x2, ShuffleTransition)
        active3 = isinstance(self.x3, ShuffleTransition)
        if active2 == active3:
            raise ValueError("exactly one of tracks 2/3 must be active")
        v2s, v2t = self._vecs(self.x2)
        v3s, v3t = self._vecs(self.x3)
        if self.x1.source != v2s.add(v3s) or self.x1.target != v2t.add(v3t):
            raise ValueError("column counters do not add up")
        # the active track carries the same event as the composite, so
        # letter and kind must both agree
        if active2 and (
            self.x2.letter != self.x1.letter or self.x2.kind != self.x1.kind
        ):
            raise ValueError("track-2 step disagrees with the composite")
        if active3 and (
            self.x3.letter.unchecked() != self.x1.letter
            or self.x3.kind != self.x1.kind
        ):
            raise ValueError("track-3 step disagrees with the composite")

    @staticmethod
    def _vecs(x):
        if isinstance(x, ShuffleTransition):
            return x.source, x.target
        if isinstance(x, CounterVector):
            return x, x
        return ZERO, ZERO  # CHECK_ZERO

    @property
    def track3_active(self) -> bool:
        return isinstance(self.x3, ShuffleTransition)

    def __str__(self) -> str:
        return f"[{self.x1} | {self.x2} | {self.x3}]"


def compute_s_sets(P: Dfa, delta) -> tuple:
    """Vector ranges of the three tracks over the fragment delta.

    S1 holds the vectors reached from 0 along delta, S3 the one-component
    vectors below an S1 vector, and S2 every difference of the two.  Each
    difference is reachable: below a reached vector, its support lies in
    the states a component can occupy, and opening one component per unit
    and driving it there reaches any vector over them.  An invalid step
    raises NotSubsetOfShuffle.
    """
    delta = frozenset(delta)
    _deletion_moves(P, delta)
    s1 = reached(delta)
    s3 = {f for f in elementary_vector_states(P) if any(f.leq(g) for g in s1)}
    s2 = {g.sub(h) for g in s1 for h in s3} - {None}
    return s1, frozenset(s2), frozenset(s3)


def _delta2_prime(P: Dfa, delta, s2) -> frozenset:
    """The remainder steps on delta's letters from and to S2 vectors."""
    steps = engine_for(P).step_table()
    letters = {t.letter for t in delta}
    return frozenset(
        t for f in s2 for a in letters for t in steps(f, a) if t.target in s2
    )


def _delta3_prime(P: Dfa, delta, s3) -> frozenset:
    letters = {t.letter for t in delta}
    out = set()
    for t in engine_for(P).core:
        if t.letter in letters and t.source in s3 and t.target in s3:
            out.add(t.checked())
    return frozenset(out)


def _column_order(col: TrackLetter) -> tuple:
    """A column's place in W's alphabet, from its parts: the composite's
    text, the remainder's text before the column, whether track 3 moves,
    then the column's text and kind, which its text leaves out.  Among the
    moves of one state the remainder is fixed and, with distinct steps
    printing distinctly, the column's text follows from the rest, so there
    the order is (x1's text, remainder before component, kind), which
    `_deletion_moves` sorts each source's moves by once."""
    s2 = col.x2 if col.track3_active else col.x2.source
    return str(col.x1), str(s2), col.track3_active, str(col), col.x1.kind


class _PackedMoves:
    """The move function `_deletion_moves` builds, on the packed vectors
    of delta's `Layout`.

    A remainder s2 is a packed vector, and a tracked component s3 is 0,
    its packed unit vector or CHECK_ZERO.  table maps a packed composite
    source s1 = s2 + s3 to its candidate moves, each a packed step x1 of
    delta (`Fragment`) with a test: (x1, mask, effect) is x1's remainder
    move from s2 when mask is 0 or s2 & mask is nonzero, to s2 + effect;
    (x1, by_s3, None) is its component move, by_s3 mapping s3 to (x3,
    next s3) for the core step x3 out of s3.  The candidates come in
    column order (`_column_order`), so every state's moves do.
    """

    def __init__(self, layout: Layout):
        self.layout = layout
        self.table: dict = {}

    def pack(self, f: CounterVector) -> Optional[int]:
        """f packed, or None when the layout cannot hold it."""
        return self.layout.pack(f.entries)

    def unpack(self, f: int) -> CounterVector:
        return self.layout.vector(f)

    def moves(self, state) -> tuple:
        """The moves (x1, x3, next state) of a packed state (s2, s3): x3
        is the core step of a component move, None for a remainder move."""
        s2, s3 = state
        out = []
        for x1, test, effect in self.table.get(s2 if s3 is CHECK_ZERO else s2 + s3, ()):
            if effect is None:
                hit = test.get(s3)
                if hit is not None:
                    out.append((x1, hit[0], (s2, hit[1])))
            elif not test or s2 & test:
                out.append((x1, None, (s2 + effect, s3)))
        return tuple(out)

    def tracks(self, state, move) -> tuple:
        """The three tracks (x1, x2, x3) of a move of a packed state, as
        step objects."""
        s2, s3 = state
        (f, a, g, kind), x3, _next = move
        x1 = ShuffleTransition(self.unpack(f), a, self.unpack(g), kind)
        if x3 is not None:
            return x1, self.unpack(s2), x3.checked()
        rest = ZERO if s3 is CHECK_ZERO else self.unpack(s3)
        x2 = ShuffleTransition(x1.source.sub(rest), x1.letter, x1.target.sub(rest), x1.kind)
        return x1, x2, (s3 if s3 is CHECK_ZERO else rest)


def _deletion_moves(P: Dfa, delta) -> _PackedMoves:
    """The move function of the deletion system over the fragment delta, a
    `Fragment` or a set of steps, which it packs once (`Fragment.of`).

    A state (s2, s3) is the remainder vector and the tracked component, or
    CHECK_ZERO once that component has closed.  A remainder move takes a
    step x2 of s2 whose shift by the resting component is in delta, a
    component move an elementary step x3 of s3 whose shift by s2 is; that
    shift is the column's composite step x1, so the column's counters,
    letter and kind agree by construction.  Every step of delta must be
    one that `ShuffleEngine.successors` makes: an invalid step, or one on
    a letter P does not read, raises NotSubsetOfShuffle here, before any
    move is made.

    The moves run on delta's packed vectors (`_PackedMoves`), whose
    layout leaves a spare bit in every field, so a shifted step never
    carries into a neighbouring field, and s3 is 0, a packed unit or
    CHECK_ZERO.  delta is read once into a table by packed source.  Each
    step x1 of delta carries the engine steps it shifts
    (`_shifted_steps`): those of x1's letter and kind out of 0 or out of
    a state of x1's source, after which x1's
    target follows.  x2 = x1 - s3 is a step of s2 exactly when one of them
    leaves 0 or a state s2 counts, and x3 = x1 - s2 is the core step among
    them out of s3, if any; delta's steps are checked the same way.  Each
    source's candidates are sorted once by (x1's text, remainder before
    component, kind), which is column order on every state
    (`_column_order`); x1's text comes from the packed step
    (`Fragment.text`).  Only a witness's and W_delta's columns make x1, x2
    and x3 as step objects (`_PackedMoves.tracks`).

    On every state reached from (0, 0) these are W_delta's moves, for any
    delta, a forged certificate's included: x1 in delta from a reached
    s1 = s2 + s3 ends in S1, so x2's target x1.target - s3 lies in S2, and
    x3's target, an elementary vector below x1.target, lies in S3.  Their
    columns agree by construction, and `TrackLetter` checks each one made
    all the same.
    """
    if not isinstance(delta, Fragment):
        delta = Fragment.of(delta)
    layout = delta.layout
    system = _PackedMoves(layout)
    if not delta.steps:  # no state has a move
        return system
    eng = engine_for(P)
    shifted = _shifted_steps(eng, layout.shift)
    field, core = layout.field, eng.core
    # packed source -> its candidates, each under its order among a state's
    # moves; delta is read in `step_order`, so the step it names when one
    # is invalid does not follow the hash seed
    text = delta.text
    by_source: dict = {}
    for x1 in sorted(delta.steps, key=lambda x1: (text(x1), x1[3])):
        s, a, t, kind = x1
        always, mask, by_s3 = False, 0, {}
        for c, cs, ct in shifted.get((a, kind, t - s), ()):
            if not cs:
                always = True
            elif s & field * cs:
                mask |= field * cs
            else:
                continue
            if c in core:
                by_s3[cs] = (c, ct or CHECK_ZERO)
        if not (always or mask):
            raise NotSubsetOfShuffle(f"{tagged_text(text(x1), kind)} is not a valid step")
        out = by_source.setdefault(s, [])
        out.append(((text(x1), False, kind), (x1, 0 if always else mask, t - s)))
        if by_s3:
            out.append(((text(x1), True, kind), (x1, by_s3, None)))
    for s, out in by_source.items():
        out.sort(key=lambda keyed: keyed[0])
        system.table[s] = tuple(move for _key, move in out)
    return system


def _shifted_steps(eng, shift: dict) -> dict:
    """(letter, kind, packed effect) -> [(step, packed source, packed
    target)] for each step of the engine out of 0, or out of a state with
    a field in shift, whose target packs: the steps that
    `ShuffleEngine.successors` shifts.  Their ends are 0 or unit vectors."""
    unit = {q: 1 << k for q, k in shift.items()}
    out: dict = {}
    for steps in (*eng.opening.values(), *(
        steps for (q, _a), steps in eng.moving.items() if q in unit
    )):
        for c in steps:
            source, target = c.source.entries, c.target.entries
            cs = unit[source[0][0]] if source else 0
            ct = unit.get(target[0][0]) if target else 0
            if ct is not None:
                out.setdefault((c.letter, c.kind, ct - cs), []).append((c, cs, ct))
    return out


def w_delta_moves(P: Dfa, delta):
    """The move function of W_delta: `_deletion_moves` on a W-state
    (s1, s2, s3), packed and unpacked at the edge, each move made a column
    and its next state led by the composite's target.  A state with
    s1 != s2 + s3 (CHECK_ZERO counting as 0) raises ValueError."""
    system = _deletion_moves(P, delta)

    def w_moves(state) -> tuple:
        s1, s2, s3 = state
        if s2.add(ZERO if s3 is CHECK_ZERO else s3) != s1:
            raise ValueError("column counters do not add up")
        packed = system.pack(s2), (s3 if s3 is CHECK_ZERO else system.pack(s3))
        if None in packed:  # no step of delta leaves s1
            return ()
        out = []
        for move in system.moves(packed):
            _x1, _x3, (n2, n3) = move
            n3 = n3 if n3 is CHECK_ZERO else system.unpack(n3)
            col = TrackLetter(*system.tracks(packed, move))
            out.append((col, (col.x1.target, system.unpack(n2), n3)))
        return tuple(out)

    return w_moves


@dataclass(frozen=True)
class DeltaSystem:
    delta: frozenset
    s1: frozenset
    s2: frozenset
    s3: frozenset
    delta2: frozenset
    delta3: frozenset
    columns: frozenset
    moves: Callable = field(compare=False, repr=False)


def build_delta_paren(P: Dfa, delta) -> DeltaSystem:
    """All consistent columns over delta, with the ranges, steps and W's
    moves they come from.  A column is a move of a state that could read
    one (s1 the source of a step in delta, s3 in S3 or CHECK_ZERO,
    counting as 0, and s2 = s1 - s3 in S2) that ends in S2 and in S3 or at
    CHECK_ZERO, as the steps delta2'/delta3' do.  From a state reached
    from 0 every move does (`_deletion_moves`)."""
    delta = frozenset(delta)
    s1, s2, s3 = compute_s_sets(P, delta)
    moves = w_delta_moves(P, delta)
    columns = set()
    for f in {t.source for t in delta}:
        for h in (*s3, CHECK_ZERO):
            rest = f.sub(ZERO if h is CHECK_ZERO else h)
            if rest in s2:
                columns.update(
                    col
                    for col, (_n1, n2, n3) in moves((f, rest, h))
                    if n2 in s2 and (n3 is CHECK_ZERO or n3 in s3)
                )
    d2, d3 = _delta2_prime(P, delta, s2), _delta3_prime(P, delta, s3)
    return DeltaSystem(delta, s1, s2, s3, d2, d3, frozenset(columns), moves)


@dataclass(frozen=True)
class WDelta:
    automaton: Dfa  # semiautomaton over Letter(TrackLetter)
    system: DeltaSystem
    decode: dict  # state name -> (s1, s2, s3 or CHECK_ZERO)


def build_w_delta(P: Dfa, delta) -> WDelta:
    """Deterministic recognizer of the valid column sequences.

    Its states are those reached from (0, 0, 0) by `w_delta_moves`, and
    its alphabet is every column of `build_delta_paren`.  The closure
    search never builds it; it serves `wdelta` and the tests.
    """
    system = build_delta_paren(P, delta)
    initial = (ZERO, ZERO, ZERO)
    names = {initial: "|".join(map(str, initial))}
    queue = [initial]  # the loop reads what it appends
    delta_map = {}
    for src in queue:
        for col, nxt in system.moves(src):
            if nxt not in names:
                names[nxt] = "|".join(map(str, nxt))
                queue.append(nxt)
            delta_map[(names[src], Letter(col))] = names[nxt]
    dfa = Dfa(
        alphabet=tuple(Letter(c) for c in sorted(system.columns, key=_column_order)),
        states=frozenset(names.values()),
        delta=delta_map,
        initial=names[initial],
        finals=frozenset(),
        kind="semiautomaton",
    )
    decode = {name: s for s, name in names.items()}
    return WDelta(dfa, system, decode)


def mu_nu_project(columns) -> tuple:
    """Split a column word into its composite and remainder computations."""
    mu = tuple(c.x1 for c in columns)
    nu = tuple(c.x2 for c in columns if isinstance(c.x2, ShuffleTransition))
    return mu, nu


def decode_witness(columns) -> tuple:
    """Word-level reading of a column sequence, as `sp_falsify` gives a
    counterexample: (word, remainder, component, positions)."""
    _, nu = mu_nu_project(columns)
    positions = tuple(i for i, c in enumerate(columns) if c.track3_active)
    return (
        tuple(c.x1.letter for c in columns),
        tuple(t.letter for t in nu),
        tuple(columns[i].x3.letter.unchecked() for i in positions),
        positions,
    )


@dataclass(frozen=True)
class ClosureOutcome:
    holds: bool
    witness: Optional[tuple]  # column sequence on failure
    states_explored: int


def _closure_search(P: Dfa, V: Dfa, delta, require_zero: bool) -> ClosureOutcome:
    """Breadth-first search of the deletion system x V x V for an accepted
    composite whose remainder V rejects.

    A state is (deletion-system state, V-state of the composite, V-state of
    the remainder), and with require_zero only a closed composite, s2 = 0
    and s3 in {0, CHECK_ZERO}, may witness.  It is searched as the number
    (d * n + v1) * n + v2: d the deletion-system state's id, given when a
    move first leads there, v1 and v2 places in V.states.  A deletion-system
    state is packed in the layout of delta, a `Fragment` or a set of steps
    (`_deletion_moves`); its moves are made when the search first reaches
    it and kept by id, each with its target's id times n * n and its step
    of the V-pair v1 * n + v2.  They come in column order, as W_delta's
    alphabet lists them, so for any numbering the search visits states,
    and finds its witness, in the order of the same search over W_delta.
    Only the witness's columns are made, with their step objects
    (`_witness`).

    A state whose composite V-state reaches no final state of complete(V)
    (`live_states`) is not searched: no witness lies below it, and every
    state below it is one too.  So the other states are met in the same
    order, from the same parents, as without that cut; states_explored
    counts them alone.
    """
    system = _deletion_moves(P, delta)
    V = complete(V)
    live = live_states(V)
    if V.initial not in live:
        return ClosureOutcome(True, None, 0)
    index = {q: i for i, q in enumerate(V.states)}
    n = len(index)
    nn = n * n
    alive = [q in live for q in index]
    final = [q in V.finals for q in index]
    witnessing = [f1 and not f2 for f1 in final for f2 in final]
    # (letter, track 2 moves) -> V-pair -> V-pair, or None at a dead composite
    pair_steps: dict = {}
    ids = {(0, 0): 0}
    found = [(0, 0)]  # id -> packed deletion-system state
    moves = [None]  # id -> [(next id * n * n, V-pair step, move)]
    start = index[V.initial] * (n + 1)  # (0, 0), V.initial twice
    parent = {start: None}  # state -> the state it was reached from
    queue = [start]  # in visiting order; the loop reads what it appends
    for state in queue:
        d, v = divmod(state, nn)
        if witnessing[v]:
            s2, s3 = found[d]
            if not require_zero or (s2 == 0 and s3 in (0, CHECK_ZERO)):
                witness = _witness(parent, state, nn, moves, found, system)
                return ClosureOutcome(False, witness, len(parent))
        out = moves[d]
        if out is None:
            out = moves[d] = []
            for move in system.moves(found[d]):
                x1, x3, nds = move
                nd = ids.setdefault(nds, len(found))
                if nd == len(found):
                    found.append(nds)
                    moves.append(None)
                key = (x1[1], x3 is None)
                step = pair_steps.get(key)
                if step is None:
                    to = [index[V.delta[(q, key[0])]] for q in index]
                    rest = to if key[1] else range(n)
                    step = pair_steps[key] = [
                        t1 * n + t2 if alive[t1] else None for t1 in to for t2 in rest
                    ]
                out.append((nd * nn, step, move))
        for base, step, _move in out:
            pair = step[v]
            if pair is not None:
                nxt = base + pair
                if nxt not in parent:
                    parent[nxt] = state
                    queue.append(nxt)
    return ClosureOutcome(True, None, len(parent))


def _witness(parent: dict, state: int, nn: int, moves: list, found: list, system) -> tuple:
    """The columns on the search tree's path from the start to state: into
    each state, the first of its parent's moves that leads there."""
    path = []
    while parent[state] is not None:
        prev = parent[state]
        d, v = divmod(prev, nn)
        move = next(
            m for base, step, m in moves[d] if step[v] is not None and base + step[v] == state
        )
        path.append(TrackLetter(*system.tracks(found[d], move)))
        state = prev
    return tuple(reversed(path))


def check_closure_prefix(P: Dfa, V: Dfa, delta) -> ClosureOutcome:
    """Exact closure check for the prefix form.

    Sound only when every computation labeling a word of V stays inside
    delta, a `Fragment` or a set of steps; the caller must have
    established that coverage.  An invalid step in delta raises
    NotSubsetOfShuffle.
    """
    return _closure_search(P, V, delta, require_zero=False)


def check_closure_zero(P: Dfa, V: Dfa, delta) -> ClosureOutcome:
    """Exact closure check where the composite side must close all
    components and end accepted by V.

    Sound only when every closing computation labeling a word of V stays
    inside delta, a `Fragment` or a set of steps; the caller must have
    established that coverage.  An invalid step in delta raises
    NotSubsetOfShuffle.
    """
    return _closure_search(P, V, delta, require_zero=True)
