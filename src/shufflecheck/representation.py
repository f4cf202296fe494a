"""Three-track column alphabet and the local language recognizing
one-component deletions over a finite transition fragment.

Track 1 carries a composite computation, track 2 the remainder after
deleting one tracked component, track 3 that component itself (checked
letters).  Exactly one of tracks 2/3 moves per column and the counter
vectors add up, so projecting a recognized word to tracks 1 and 2 realizes
the deletion relation exactly on the covered fragment.

The recognizer W_delta has one definition of a move, and so of a column,
`w_delta_moves`.  The closure search asks it for a state's columns when the
search first reaches that state and never builds W_delta; `build_w_delta`
walks the same moves, for the `wdelta` command and tests.  The move function
checks a state's counters once, and its step indexes fix everything else a
column must satisfy, so it builds columns without re-checking each one; a
column built by hand with `TrackLetter(...)` is checked in full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .automata import Dfa, Letter, complete
from .engine import (
    Computation,
    CounterVector,
    ShuffleTransition,
    ZERO,
    elementary_vector_states,
    engine_for,
    reached,
)


class NotSubsetOfShuffle(Exception):
    pass


class _CheckZero:
    """Sentinel: the tracked component has been deleted completely."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "0#"

    def __str__(self):
        return "0#"


CHECK_ZERO = _CheckZero()


@dataclass(frozen=True)
class TrackLetter:
    """One column: a composite step plus its two-way decomposition.

    The constructor checks that exactly one of tracks 2/3 moves, that the
    active track carries the composite's letter and kind, and that the
    counters add up, and raises ValueError otherwise.  The move function of
    `w_delta_moves` makes its columns with `_unchecked`, which skips that
    check: it checks the counters once per W-state, and its step indexes
    fix the rest (see `w_delta_moves`).
    """

    x1: ShuffleTransition
    x2: Union[ShuffleTransition, CounterVector]
    x3: Union[ShuffleTransition, CounterVector, _CheckZero]

    @classmethod
    def _unchecked(cls, x1, x2, x3) -> "TrackLetter":
        """The column (x1, x2, x3), built without `__post_init__`; the
        caller vouches that it passes the constructor's check."""
        col = object.__new__(cls)
        col.__dict__.update(x1=x1, x2=x2, x3=x3, _hash=hash((x1, x2, x3)))
        return col

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
        object.__setattr__(self, "_hash", hash((self.x1, self.x2, self.x3)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (TrackLetter, (self.x1, self.x2, self.x3))

    @staticmethod
    def _vecs(x):
        if isinstance(x, ShuffleTransition):
            return x.source, x.target
        if isinstance(x, CounterVector):
            return x, x
        return ZERO, ZERO  # deleted-component sentinel

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
    raises NotSubsetOfShuffle, as does a step on a letter P does not read.
    """
    delta = frozenset(delta)
    eng = engine_for(P)
    steps = eng.step_table()
    for t in delta:
        if t.letter not in eng.letters or t not in steps(t.source, t.letter):
            raise NotSubsetOfShuffle(f"{t.tagged_str()} is not a valid step")
    s1 = reached(delta)
    s3 = {
        f
        for f in elementary_vector_states(P)
        if any(f.leq(g) for g in s1)
    }
    s2 = {g.sub(h) for g in s1 for h in s3} - {None}
    return s1, frozenset(s2), frozenset(s3)


def _delta2_prime(P: Dfa, delta, s2) -> frozenset:
    letters = {t.letter for t in delta}
    out = set()
    for core in engine_for(P).sigma_core():
        if core.letter not in letters:
            continue
        for s in s2:
            h = s.sub(core.source)
            if h is None:
                continue
            shifted = core.shift(h)
            if shifted.target in s2:
                out.add(shifted)
    return frozenset(out)


def _delta3_prime(P: Dfa, delta, s3) -> frozenset:
    letters = {t.letter for t in delta}
    out = set()
    for t in engine_for(P).core_elementary():
        if t.letter in letters and t.source in s3 and t.target in s3:
            out.add(t.checked())
    return frozenset(out)


def _column_order(col: TrackLetter) -> tuple:
    """A column's place in W's alphabet and in a state's moves: its text,
    then its kind, which the text leaves out."""
    return str(col), col.x1.kind


def _tracks(P: Dfa, delta: frozenset) -> tuple:
    """(S1, S2, S3, delta2', delta3', moves) of the fragment delta, where
    moves is the move function of W_delta described at `w_delta_moves`."""
    s1, s2_set, s3_set = compute_s_sets(P, delta)
    d2 = _delta2_prime(P, delta, s2_set)
    d3 = _delta3_prime(P, delta, s3_set)
    from_source: dict = {}
    for x1 in delta:
        from_source.setdefault(x1.source, []).append(x1)
    by_event2: dict = {}
    for x2 in d2:
        by_event2.setdefault((x2.source, x2.letter, x2.kind), []).append(x2)
    by_event3: dict = {}
    for x3 in d3:
        key = (x3.source, x3.letter.unchecked(), x3.kind)
        by_event3.setdefault(key, []).append(x3)

    column = TrackLetter._unchecked

    def moves(state) -> tuple:
        s1, s2, s3 = state
        rest = ZERO if s3 is CHECK_ZERO else s3
        if s2.add(rest) != s1:
            raise ValueError("column counters do not add up")
        out = []
        for x1 in from_source.get(s1, ()):
            # track 2 moves while track 3 rests
            for x2 in by_event2.get((s2, x1.letter, x1.kind), ()):
                if x2.target.add(rest) == x1.target:
                    out.append((column(x1, x2, s3), (x1.target, x2.target, s3)))
            # track 3 moves while track 2 rests; no component step leaves
            # the sentinel
            for x3 in by_event3.get((s3, x1.letter, x1.kind), ()):
                if x3.target.add(s2) == x1.target:
                    n3 = CHECK_ZERO if x3.target == ZERO else x3.target
                    out.append((column(x1, s2, x3), (x1.target, s2, n3)))
        out.sort(key=lambda move: _column_order(move[0]))
        return tuple(out)

    return s1, s2_set, s3_set, d2, d3, moves


def w_delta_moves(P: Dfa, delta):
    """The move function of W_delta, made once per fragment.

    The returned function maps a W-state (s1, s2, s3) to its moves, each a
    (column, next state) pair, in column order (`_column_order`).  A
    column starts where the state stands: its composite step at s1, its
    active track at s2 or s3 while the other track rests.  Every state
    reached from (0, 0, 0) has s1 = s2 + s3 (the deleted sentinel counting
    as 0), with s2 in S2 and s3 in S3, and each column keeps that, so a move
    needs only the step indexes below: delta's steps by source, the
    remainder and component steps by (source, letter, kind).  No state
    pays for the columns of another.  An invalid step in delta raises
    NotSubsetOfShuffle here, before any move is made.

    The function checks s1 = s2 + s3 once per state, raising ValueError
    when it fails, and then builds the state's columns without the
    `TrackLetter` constructor's check, which they would all pass:
    - exactly one of tracks 2/3 moves: the active one is a step of an
      index, the resting one the state's vector or the sentinel;
    - letter and kind: the index key (source, letter, kind) of the active
      step is (its track's vector, x1's letter, x1's kind), with the
      component step's letter unchecked;
    - sources add up: x1's source is s1 and the active step's source is
      its track's vector, so this is the state's own check;
    - targets add up: each move keeps only the active steps whose target
      plus the resting vector is x1's target.
    """
    return _tracks(P, frozenset(delta))[-1]


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
    """All consistent columns over delta, with the ranges, steps and moves
    they come from: the moves of every state that could read one, s1 the
    source of a step in delta, s3 in S3 or the sentinel (counting as 0) and
    s2 = s1 - s3 in S2."""
    delta = frozenset(delta)
    s1, s2, s3, d2, d3, moves = _tracks(P, delta)
    columns = set()
    for f in {t.source for t in delta}:
        for h in (*s3, CHECK_ZERO):
            rest = f.sub(ZERO if h is CHECK_ZERO else h)
            if rest in s2:
                columns.update(col for col, _next in moves((f, rest, h)))
    return DeltaSystem(delta, s1, s2, s3, d2, d3, frozenset(columns), moves)


def _state_name(s1, s2, s3) -> str:
    return f"{s1}|{s2}|{s3}"


@dataclass(frozen=True)
class WDelta:
    automaton: Dfa  # semiautomaton over Letter(TrackLetter)
    system: DeltaSystem
    decode: dict  # state name -> (s1, s2, s3-or-sentinel)


def build_w_delta(P: Dfa, delta) -> WDelta:
    """Deterministic recognizer of the valid column sequences.

    Its states are those reached from (0, 0, 0) by the moves of
    `build_delta_paren`, and its alphabet is every column there.  The
    closure search never builds it; it serves `wdelta` and the tests.
    """
    system = build_delta_paren(P, delta)
    initial = (ZERO, ZERO, ZERO)
    names = {initial: _state_name(*initial)}
    queue = deque([initial])
    delta_map = {}
    while queue:
        src = queue.popleft()
        for col, nxt in system.moves(src):
            if nxt not in names:
                names[nxt] = _state_name(*nxt)
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


def decode_witness(columns) -> dict:
    """Word-level reading of a column sequence: full word, remainder,
    deleted component and its positions inside the full word."""
    mu, nu = mu_nu_project(columns)
    word = tuple(c.x1.letter for c in columns)
    remainder = tuple(t.letter for t in nu)
    positions = tuple(i for i, c in enumerate(columns) if c.track3_active)
    component = tuple(columns[i].x3.letter.unchecked() for i in positions)
    return {
        "word": word,
        "remainder": remainder,
        "component": component,
        "positions": positions,
        "mu": Computation(mu),
        "nu": Computation(nu),
    }


@dataclass(frozen=True)
class ClosureOutcome:
    holds: bool
    witness: Optional[tuple]  # column sequence on failure
    states_explored: int = 0


def _witness(parent: dict, state) -> tuple:
    """The column path of the search tree from the start to state."""
    path = []
    while parent[state] is not None:
        state, col = parent[state]
        path.append(col)
    return tuple(reversed(path))


def _closure_search(P: Dfa, V: Dfa, delta, require_zero: bool) -> ClosureOutcome:
    """Breadth-first search of W_delta x V x V for an accepted composite
    whose remainder V rejects.

    W_delta is never built: a W-state's moves are made by `w_delta_moves`
    when the search first reaches the state, and kept for the next visit.
    They come in column-text order, as W's alphabet lists them, so the
    search visits states, and finds its witness, in a fixed order.
    """
    V = complete(V)
    finals = V.finals
    w_moves = w_delta_moves(P, delta)
    step = {a: {q: V.delta[(q, a)] for q in V.states} for a in V.alphabet}
    # per W-state: (column, W-target, V-step of track 1, V-step of track 2
    # or None when track 2 rests)
    moves: dict = {}
    initial = (ZERO, ZERO, ZERO)
    start = (initial, V.initial, V.initial)
    parent = {start: None}  # state -> (previous state, column)
    queue = deque([start])
    while queue:
        state = queue.popleft()
        ws, vmu, vnu = state
        if vmu in finals and vnu not in finals:
            if not require_zero or ws[0] == ZERO:
                return ClosureOutcome(False, _witness(parent, state), len(parent))
        out = moves.get(ws)
        if out is None:
            out = moves[ws] = tuple(
                (
                    col,
                    nws,
                    step[col.x1.letter],
                    step[col.x2.letter] if isinstance(col.x2, ShuffleTransition) else None,
                )
                for col, nws in w_moves(ws)
            )
        for col, nws, mu, nu in out:
            nxt = (nws, mu[vmu], vnu if nu is None else nu[vnu])
            if nxt not in parent:
                parent[nxt] = (state, col)
                queue.append(nxt)
    return ClosureOutcome(True, None, len(parent))


def check_closure_prefix(P: Dfa, V: Dfa, delta) -> ClosureOutcome:
    """Exact closure check for the prefix form.

    Sound only when every computation labeling a word of V stays inside
    delta; the caller must have established that coverage.
    """
    return _closure_search(P, V, delta, require_zero=False)


def check_closure_zero(P: Dfa, V: Dfa, delta) -> ClosureOutcome:
    """Exact closure check where the composite side must close all
    components and end accepted by V.

    Sound only when every closing computation labeling a word of V stays
    inside delta; the caller must have established that coverage.
    """
    return _closure_search(P, V, delta, require_zero=True)
