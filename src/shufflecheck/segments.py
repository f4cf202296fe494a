"""Sufficient-condition machinery built on downward-closed counter-vector sets.

A compatible segment yields a finite powerset-style semiautomaton whose
language is closed under deleting whole components, giving cheap positive
certificates without any Petri-net analysis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .automata import Dfa, Letter, ShufflecheckError, grave
from .engine import CounterVector, ZERO, engine_for


class NotCompatible(ShufflecheckError):
    pass


class FrontierCapExceeded(ShufflecheckError):
    pass


class NotInitialSegment(ShufflecheckError, ValueError):
    """An explicit vector set that is empty or not downward closed."""


# The most vector sets `partial_powerset` reaches before it raises
# FrontierCapExceeded.
FRONTIER_CAP = 100_000


@dataclass(frozen=True)
class InitialSegment:
    """Either an explicit downward-closed vector set or the norm ball K(n)."""

    vectors: Optional[frozenset] = None
    n: Optional[int] = None

    @staticmethod
    def explicit(vectors) -> "InitialSegment":
        vectors = frozenset(vectors)
        if not is_initial_segment(vectors):
            raise NotInitialSegment(
                "explicit segment is empty or not downward closed"
            )
        return InitialSegment(vectors=vectors)

    @staticmethod
    def norm_ball(n: int) -> "InitialSegment":
        if n < 0:
            raise ValueError("norm bound must be non-negative")
        return InitialSegment(n=n)

    def __contains__(self, f: CounterVector) -> bool:
        if self.vectors is not None:
            return f in self.vectors
        return f.norm <= self.n

    def __str__(self) -> str:
        if self.vectors is not None:
            return "{" + ", ".join(sorted(str(v) for v in self.vectors)) + "}"
        return f"K {self.n}"


def is_initial_segment(S) -> bool:
    """Nonempty and closed under decrementing any single counter."""
    S = frozenset(S)
    if not S:
        return False
    for f in S:
        for g in f.decrements():
            if g not in S:
                return False
    return True


def _set_name(M: frozenset) -> str:
    return "{" + " | ".join(sorted(str(f) for f in M)) + "}"


@dataclass(frozen=True)
class PowersetResult:
    automaton: Dfa
    compatible: bool
    witness: Optional[tuple]  # (vector-set state, letter) on failure


def partial_powerset(P: Dfa, I: InitialSegment) -> PowersetResult:
    """Subset construction over the counter semiautomaton, clipped to I.

    From {0}, a letter moves a vector set to the set of all one-step
    targets.  A successor set straddling the border of I breaks
    compatibility; a successor set entirely outside I is simply dropped.
    More than FRONTIER_CAP reachable vector sets raise FrontierCapExceeded.
    """
    steps = engine_for(P).step_table()
    start = frozenset({ZERO})
    seen = {start}
    queue = deque([start])
    delta = {}
    witness = None
    while queue and witness is None:
        M = queue.popleft()
        for a in P.alphabet:
            succ = set()
            for f in M:
                for t in steps(f, a):
                    succ.add(t.target)
            if not succ:
                continue
            inside = frozenset(g for g in succ if g in I)
            if not inside:
                continue  # entirely outside: deletion allowed, no edge
            if len(inside) < len(succ):
                witness = (M, a)
                break
            delta[(_set_name(M), a)] = _set_name(inside)
            if inside not in seen:
                seen.add(inside)
                if len(seen) > FRONTIER_CAP:
                    raise FrontierCapExceeded(
                        f"more than {FRONTIER_CAP} reachable vector sets"
                    )
                queue.append(inside)
    automaton = Dfa(
        alphabet=P.alphabet,
        states=frozenset(map(_set_name, seen)),
        delta=delta,
        initial=_set_name(start),
        finals=frozenset(),
        kind="semiautomaton",
    )
    return PowersetResult(automaton, witness is None, witness)


def check_phi_gamma_omega(P: Dfa) -> Optional[dict]:
    """Try to split the alphabet into first / inner / last letter classes.

    Inferred from the automaton: a transition out of the start state begins
    a word, one into a final state may end it.  A letter forced into two
    different classes defeats the split.  Returns {'phi':…, 'gamma':…,
    'omega':…} or None.
    """
    finals = P.finals
    entered = {p for (_q, _a), p in P.delta.items()}
    demand: dict = {}

    def require(a: Letter, cls: str) -> bool:
        if demand.setdefault(a, cls) != cls:
            return False
        return True

    for (q, a), p in P.delta.items():
        at_start = q == P.initial
        mid_start = q in entered  # q also reachable by a nonempty word
        word_can_continue = p in {s for (s, _x) in P.delta}
        ok = True
        if at_start:
            if p in finals:
                ok = ok and require(a, "gamma")  # one-letter word
            if word_can_continue:
                ok = ok and require(a, "phi")
        if mid_start:
            if p in finals:
                ok = ok and require(a, "omega")
            if word_can_continue:
                ok = ok and require(a, "gamma")
        if not ok:
            return None
    phi = {a for a, c in demand.items() if c == "phi"}
    omega = {a for a, c in demand.items() if c == "omega"}
    gamma = set(P.alphabet) - phi - omega
    return {"phi": frozenset(phi), "gamma": frozenset(gamma), "omega": frozenset(omega)}


def l_of_segment(P: Dfa, I: InitialSegment) -> Dfa:
    """The prefix-closed language certified by a compatible segment."""
    result = partial_powerset(P, I)
    if not result.compatible:
        raise NotCompatible(
            f"segment incompatible at state {result.witness[0]} "
            f"on letter {result.witness[1]}"
        )
    return grave(result.automaton)
