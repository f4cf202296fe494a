"""Brute-force reference implementations of the paper's definitions.

Everything here works definition-first on explicit finite word sets and
computations, with hard caps on length and cardinality: the word-level
falsifier, one-step shuffle factors (swf1), structured words, the shuffled
runs of two computations and one-component deletions (srf1).  The point is
slow, obviously-correct code against which the counter-vector machinery is
property tested; the package never calls it.  sp_falsify here is the
word-by-word reference that engine.sp_falsify must match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from shufflecheck.automata import Dfa, Letter, ShufflecheckError, Word, accepts
from shufflecheck.engine import (
    BudgetExceeded,
    Computation,
    CounterVector,
    END,
    INNER,
    NotAComputation,
    START,
    START_END,
    ShuffleTransition,
    ZERO,
    engine_for,
    shuffle_member,
)
from shufflecheck.oracle import (
    DEFAULT_MAX_CARD,
    WordSet,
    iterated_shuffle_upto,
    one_factor_removals,
)


class InvalidStructuredWord(ShufflecheckError):
    pass


def word_key(alphabet: tuple):
    """Length-then-declaration-order sort key for words."""
    rank = {a: i for i, a in enumerate(alphabet)}

    def key(w: Word):
        return (len(w), tuple(rank.get(a, len(rank)) for a in w))

    return key


def swf1(P: Dfa, M: WordSet, card_cap: int = DEFAULT_MAX_CARD) -> WordSet:
    """One-step shuffle factors of M, restricted to iterated-shuffle members."""
    out = set()
    for w in M:
        w = tuple(w)
        if shuffle_member(P, w):
            out.add(w)  # e = empty component
        for u, _e, _pos in one_factor_removals(P, w):
            if shuffle_member(P, u):
                out.add(u)
        if len(out) > card_cap:
            raise BudgetExceeded("oracle word-set cardinality cap hit")
    return WordSet(frozenset(out), M.bound)


def sp_falsify(P: Dfa, V: Dfa, maxlen: int = 6) -> Optional[tuple]:
    """Bounded search for a closure violation.

    Looks for w in the iterated shuffle of P intersected with V such that
    deleting one whole component of w leaves a word outside V.  Returns the
    shortest (w, u, e, positions) with ties broken by the alphabet
    declaration order of P, or None when the bounded search is clean.
    """
    key = word_key(P.alphabet)
    members = sorted(iterated_shuffle_upto(P, maxlen), key=key)
    best = None
    for w in members:
        if not accepts(V, w):
            continue
        candidates = []
        for u, e, pos in one_factor_removals(P, w):
            if not shuffle_member(P, u):
                continue
            if not accepts(V, u):
                candidates.append((u, e, pos))
        if candidates:
            u, e, pos = min(candidates, key=lambda c: (key(c[0]), key(c[1]), c[2]))
            found = (w, u, e, pos)
            if best is None or key(w) < key(best[0]):
                best = found
        if best is not None and key(w) > key(best[0]):
            break
    return best


@dataclass(frozen=True)
class StructuredLetter:
    letter: Letter  # carries the component index
    bracket: str  # start | inner | end | start_end

    def __str__(self) -> str:
        return f"{self.letter}!{self.bracket}"


def encode_bracketed(u: Word, index: int = 1) -> tuple:
    """Mark a plain word as one bracketed component with the given index."""
    u = tuple(u)
    if not u:
        return ()
    tagged = [Letter(a.symbol, index, a.mark) for a in u]
    if len(u) == 1:
        return (StructuredLetter(tagged[0], START_END),)
    marks = [START] + [INNER] * (len(u) - 2) + [END]
    return tuple(StructuredLetter(a, m) for a, m in zip(tagged, marks))


def computation_of_structured(P: Dfa, x: Iterable) -> Computation:
    """Replay a structured word, counting open components per P-state."""
    open_at: dict = {}  # component index -> current P-state
    counts: dict = {}  # P-state -> open-component count
    steps = []
    for sl in x:
        a = sl.letter
        idx = a.index
        plain = Letter(a.symbol, None, a.mark)
        src = CounterVector.make(counts)
        if sl.bracket in (START, START_END):
            if idx in open_at:
                raise InvalidStructuredWord(f"index {idx} opened twice")
            p = P.delta.get((P.initial, plain))
        else:
            if idx not in open_at:
                raise InvalidStructuredWord(f"index {idx} not open")
            q = open_at[idx]
            counts[q] = counts[q] - 1
            p = P.delta.get((q, plain))
        if p is None:
            raise InvalidStructuredWord(
                f"component {idx} leaves the component language on {plain}"
            )
        if sl.bracket in (END, START_END):
            if p not in P.finals:
                raise InvalidStructuredWord(
                    f"component {idx} ends at a non-final state"
                )
            open_at.pop(idx, None)
        else:
            open_at[idx] = p
            counts[p] = counts.get(p, 0) + 1
        tgt = CounterVector.make(counts)
        steps.append(ShuffleTransition(src, plain, tgt, sl.bracket))
    return Computation(steps)


def shuffled_runs(P: Dfa, x: Computation, e: Computation) -> frozenset:
    """All interleavings of two computations with counters re-summed."""
    out = set()
    n, m = len(x), len(e)
    for picks in itertools.combinations(range(n + m), n):
        xs = set(picks)
        i = j = 0
        zx, ze = ZERO, ZERO
        steps = []
        ok = True
        for k in range(n + m):
            if k in xs:
                step = x[i]
                i += 1
                shifted = step.shift(ze)
                zx = step.target
            else:
                step = e[j]
                j += 1
                shifted = step.shift(zx)
                ze = step.target
            steps.append(shifted)
            if shifted not in engine_for(P).successors(
                shifted.source, shifted.letter
            ):
                ok = False
                break
        if ok:
            try:
                out.add(Computation(steps))
            except NotAComputation:
                pass
    return frozenset(out)


def _elementary_fragment(P: Dfa, steps) -> bool:
    """Is this rebased step sequence a single-component run from 0?"""
    current = ZERO
    closed = False
    core = engine_for(P).core
    for t in steps:
        if closed:
            return False
        if t.source != current:
            return False
        if current.is_zero():
            if t.kind not in (START, START_END):
                return False
        else:
            if t.kind not in (INNER, END):
                return False
        if t not in core:
            return False
        if t.kind in (END, START_END):
            closed = True
        current = t.target
    return True


def srf1(P: Dfa, c: Computation) -> frozenset:
    """All computations obtained from c by deleting one tracked component.

    The deleted part, rebased by subtracting the remainder's running
    counters, must be a single-component run; the remainder, rebased the
    other way, must itself be a valid computation.  The empty deletion is
    included, so the result always contains c.
    """
    eng = engine_for(P)
    out = set()
    n = len(c)
    for r in range(n + 1):
        for picks in itertools.combinations(range(n), r):
            epos = set(picks)
            zu, ze = ZERO, ZERO
            usteps, esteps = [], []
            ok = True
            for k, step in enumerate(c):
                if k in epos:
                    src = step.source.sub(zu)
                    tgt = step.target.sub(zu)
                    if src is None or tgt is None:
                        ok = False
                        break
                    esteps.append(
                        ShuffleTransition(src, step.letter, tgt, step.kind)
                    )
                    ze = tgt
                else:
                    src = step.source.sub(ze)
                    tgt = step.target.sub(ze)
                    if src is None or tgt is None:
                        ok = False
                        break
                    rebased = ShuffleTransition(src, step.letter, tgt, step.kind)
                    if rebased not in eng.successors(src, step.letter):
                        ok = False
                        break
                    usteps.append(rebased)
                    zu = tgt
            if not ok:
                continue
            if not _elementary_fragment(P, esteps):
                continue
            try:
                out.add(Computation(usteps))
            except NotAComputation:
                continue
    return frozenset(out)
