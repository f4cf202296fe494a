"""Three-track column alphabet and the local language recognizing
one-component deletions over a finite transition fragment.

Track 1 carries a composite computation, track 2 the remainder after
deleting one tracked component, track 3 that component itself (checked
letters).  Exactly one of tracks 2/3 moves per column and the counter
vectors add up, so projecting a recognized word to tracks 1 and 2 realizes
the deletion relation exactly on the covered fragment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .automata import Dfa, Letter, complete, grave
from .engine import (
    Computation,
    CounterVector,
    END,
    START_END,
    ShuffleTransition,
    ZERO,
    elementary_vector_states,
    engine_for,
    validate_in_shuffle,
)


class NotSubsetOfShuffle(Exception):
    pass


class PreconditionUnverified(Exception):
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
    """One column: a composite step plus its two-way decomposition."""

    x1: ShuffleTransition
    x2: Union[ShuffleTransition, CounterVector]
    x3: Union[ShuffleTransition, CounterVector, _CheckZero]

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
        return ZERO, ZERO  # deleted-component sentinel

    @property
    def track3_active(self) -> bool:
        return isinstance(self.x3, ShuffleTransition)

    def __str__(self) -> str:
        return f"[{self.x1} | {self.x2} | {self.x3}]"


def compute_s_sets(P: Dfa, delta) -> tuple:
    """Vector ranges of the three tracks over the fragment delta."""
    delta = frozenset(delta)
    for t in delta:
        if not validate_in_shuffle(P, t):
            raise NotSubsetOfShuffle(f"{t.tagged_str()} is not a valid step")
    # track 1: reachable from 0 along delta
    s1 = {ZERO}
    changed = True
    while changed:
        changed = False
        for t in delta:
            if t.source in s1 and t.target not in s1:
                s1.add(t.target)
                changed = True
    # track 3: single-component vectors dominated by some track-1 vector
    s3 = {
        f
        for f in elementary_vector_states(P)
        if any(f.leq(g) for g in s1)
    }
    # track 2: differences that the full system can actually reach
    candidates = set()
    for g in s1:
        for h in s3:
            f = g.sub(h)
            if f is not None:
                candidates.add(f)
    cap = max((f.norm for f in candidates), default=0)
    reachable = engine_for(P).reachable_vectors(cap)
    s2 = candidates & reachable
    return frozenset(s1), frozenset(s2), frozenset(s3)


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


@dataclass(frozen=True)
class DeltaSystem:
    delta: frozenset
    s1: frozenset
    s2: frozenset
    s3: frozenset
    delta2: frozenset
    delta3: frozenset
    columns: frozenset


def build_delta_paren(P: Dfa, delta) -> DeltaSystem:
    """All consistent columns over the fragment delta."""
    delta = frozenset(delta)
    s1, s2, s3 = compute_s_sets(P, delta)
    d2 = _delta2_prime(P, delta, s2)
    d3 = _delta3_prime(P, delta, s3)
    columns = set()
    for x1 in delta:
        for x2 in d2:
            if x2.letter != x1.letter or x2.kind != x1.kind:
                continue
            v = x1.source.sub(x2.source)
            if v is None or x1.target.sub(x2.target) != v:
                continue
            if v in s3:
                columns.add(TrackLetter(x1, x2, v))
            if v == ZERO:
                columns.add(TrackLetter(x1, x2, CHECK_ZERO))
        for x3 in d3:
            if x3.letter.unchecked() != x1.letter or x3.kind != x1.kind:
                continue
            v = x1.source.sub(x3.source)
            if v is None or x1.target.sub(x3.target) != v:
                continue
            if v in s2:
                columns.add(TrackLetter(x1, v, x3))
    return DeltaSystem(delta, s1, s2, s3, d2, d3, frozenset(columns))


def _state_name(s1, s2, s3) -> str:
    return f"{s1}|{s2}|{s3}"


@dataclass(frozen=True)
class WDelta:
    automaton: Dfa  # semiautomaton over Letter(TrackLetter)
    system: DeltaSystem
    decode: dict  # state name -> (s1, s2, s3-or-sentinel)
    out: dict  # state name -> ((column, target name), ...) in alphabet order


def build_w_delta(P: Dfa, delta) -> WDelta:
    """Deterministic recognizer of the valid column sequences."""
    system = build_delta_paren(P, delta)
    columns = sorted(system.columns, key=str)
    # a column leaves only the states whose track 1 is its composite
    # source; each bucket keeps the alphabet order
    by_source: dict = {}
    for col in columns:
        by_source.setdefault(col.x1.source, []).append(col)
    initial = (ZERO, ZERO, ZERO)
    seen = {initial}
    queue = deque([initial])
    transitions = []
    while queue:
        src = queue.popleft()
        s1, s2, s3 = src
        for col in by_source.get(s1, ()):
            if isinstance(col.x2, ShuffleTransition):
                if col.x2.source != s2:
                    continue
                n2 = col.x2.target
            else:
                if col.x2 != s2:
                    continue
                n2 = s2
            if isinstance(col.x3, ShuffleTransition):
                if s3 is CHECK_ZERO or col.x3.source != s3:
                    continue
                n3 = CHECK_ZERO if col.x3.target == ZERO else col.x3.target
            elif col.x3 is CHECK_ZERO:
                if s3 is not CHECK_ZERO:
                    continue
                n3 = CHECK_ZERO
            else:
                if col.x3 != s3:
                    continue
                n3 = s3
            nxt = (col.x1.target, n2, n3)
            transitions.append((src, col, nxt))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    names = {s: _state_name(*s) for s in seen}
    delta_map = {}
    out: dict = {name: [] for name in names.values()}
    for src, col, tgt in transitions:
        delta_map[(names[src], Letter(col))] = names[tgt]
        out[names[src]].append((col, names[tgt]))
    dfa = Dfa(
        alphabet=tuple(Letter(c) for c in columns),
        states=frozenset(names.values()),
        delta=delta_map,
        initial=names[initial],
        finals=frozenset(),
        kind="semiautomaton",
    )
    decode = {name: s for s, name in names.items()}
    return WDelta(dfa, system, decode, {q: tuple(m) for q, m in out.items()})


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


def _as_final_dfa(V: Dfa) -> Dfa:
    if not V.is_semiautomaton:
        return V
    return Dfa(V.alphabet, V.states, dict(V.delta), V.initial, V.states, "dfa")


def _witness(parent: dict, state) -> tuple:
    """The column path of the search tree from the start to state."""
    path = []
    while parent[state] is not None:
        state, col = parent[state]
        path.append(col)
    return tuple(reversed(path))


def _closure_search(P: Dfa, V: Dfa, delta, require_zero: bool) -> ClosureOutcome:
    V = complete(_as_final_dfa(V))
    finals = V.finals
    w = build_w_delta(P, delta)
    step = {a: {q: V.delta[(q, a)] for q in V.states} for a in V.alphabet}
    # per W-state: (column, W-target, V-step of track 1, V-step of track 2
    # or None when track 2 rests), in the alphabet order of W
    moves = {
        ws: tuple(
            (
                col,
                tgt,
                step[col.x1.letter],
                step[col.x2.letter] if isinstance(col.x2, ShuffleTransition) else None,
            )
            for col, tgt in edges
        )
        for ws, edges in w.out.items()
    }
    start = (w.automaton.initial, V.initial, V.initial)
    parent = {start: None}  # state -> (previous state, column)
    queue = deque([start])
    while queue:
        state = queue.popleft()
        ws, vmu, vnu = state
        if vmu in finals and vnu not in finals:
            if not require_zero or w.decode[ws][0] == ZERO:
                return ClosureOutcome(False, _witness(parent, state), len(parent))
        for col, nws, mu, nu in moves[ws]:
            nxt = (nws, mu[vmu], vnu if nu is None else nu[vnu])
            if nxt not in parent:
                parent[nxt] = (state, col)
                queue.append(nxt)
    return ClosureOutcome(True, None, len(parent))


def check_closure_prefix(
    P: Dfa, V: Dfa, delta, coverage_established: bool = False
) -> ClosureOutcome:
    """Exact closure check for the prefix form.

    Sound only when every computation labeling a word of V stays inside
    delta; the caller asserts that via coverage_established.
    """
    if not coverage_established:
        raise PreconditionUnverified(
            "delta must be known to cover all computations labeled in V"
        )
    return _closure_search(P, V, delta, require_zero=False)


def check_closure_zero(
    P: Dfa, V: Dfa, delta, coverage_established: bool = False
) -> ClosureOutcome:
    """Exact closure check where the composite side must close all
    components and end accepted by V."""
    if not coverage_established:
        raise PreconditionUnverified(
            "delta must be known to cover all closing computations labeled in V"
        )
    return _closure_search(P, V, delta, require_zero=True)


def grave_transfer(P: Dfa, delta) -> frozenset:
    """Move a fragment to the all-states-final automaton: the downward
    closure of its vectors, with every valid step between them."""
    g = grave(P)
    eng = engine_for(g)
    vectors = set()
    for t in delta:
        vectors.add(t.source)
        vectors.add(t.target)
    closure = set(vectors)
    queue = deque(vectors)
    while queue:
        f = queue.popleft()
        for d in f.decrements():
            if d not in closure:
                closure.add(d)
                queue.append(d)
    letters = {t.letter for t in delta}
    out = set()
    for f in closure:
        for a in letters:
            for t in eng.successors(f, a):
                if t.target in closure:
                    out.add(t)
    return frozenset(out)
