"""Brute-force reference implementations used as independent oracles.

Everything here works definition-first on explicit finite word sets, with
hard caps on length and cardinality.  The point is slow, obviously-correct
code against which the counter-vector machinery is property tested.  The
decision pipeline does not use it: its falsifier is engine.sp_falsify,
and sp_falsify here is the word-by-word reference it must match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .automata import Dfa, Letter, ShufflecheckError, Word, accepts, language_upto
from .engine import (
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

DEFAULT_MAX_LEN = 8
DEFAULT_MAX_CARD = 200_000


class InvalidStructuredWord(ShufflecheckError):
    pass


@dataclass(frozen=True)
class WordSet:
    """A finite word set known to be complete up to a length bound."""

    words: frozenset
    bound: int

    def __post_init__(self):
        for w in self.words:
            if len(w) > self.bound:
                raise ValueError("word longer than the completeness bound")

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, w):
        return w in self.words

    def __len__(self):
        return len(self.words)


def word_key(alphabet: tuple):
    """Length-then-declaration-order sort key for words."""
    rank = {a: i for i, a in enumerate(alphabet)}

    def key(w: Word):
        return (len(w), tuple(rank.get(a, len(rank)) for a in w))

    return key


@lru_cache(maxsize=None)
def _shuffle_pair(u: Word, v: Word) -> frozenset:
    if not u:
        return frozenset({v})
    if not v:
        return frozenset({u})
    out = set()
    for w in _shuffle_pair(u[:-1], v):
        out.add(w + (u[-1],))
    for w in _shuffle_pair(u, v[:-1]):
        out.add(w + (v[-1],))
    return frozenset(out)


def shuffle_pair(u: Word, v: Word) -> frozenset:
    """All interleavings of u and v preserving both letter orders."""
    return _shuffle_pair(tuple(u), tuple(v))


def iterated_shuffle_upto(
    P: Dfa, n: int, card_cap: int = DEFAULT_MAX_CARD
) -> WordSet:
    """All length-<=n words decomposable into interleaved component words."""
    if n > DEFAULT_MAX_LEN * 4:
        raise BudgetExceeded(f"oracle length bound {n} too large")
    parts = [tuple(w) for w in language_upto(P, n) if w]
    current = {()}
    while True:
        grown = set(current)
        for w in current:
            room = n - len(w)
            for p in parts:
                if len(p) > room:
                    continue
                grown |= shuffle_pair(w, p)
                if len(grown) > card_cap:
                    raise BudgetExceeded("oracle word-set cardinality cap hit")
        if grown == current:
            return WordSet(frozenset(current), n)
        current = grown


def _subsequence_positions(w: Word, e: Word):
    """All strictly increasing position tuples where e occurs inside w."""
    if not e:
        yield ()
        return
    positions = [
        [i for i, a in enumerate(w) if a == b] for b in e
    ]
    # prune via combinations over the index choices
    def rec(k: int, low: int, acc: tuple):
        if k == len(e):
            yield acc
            return
        for i in positions[k]:
            if i >= low:
                yield from rec(k + 1, i + 1, acc + (i,))

    yield from rec(0, 0, ())


def one_factor_removals(P: Dfa, w: Word) -> set:
    """Pairs (u, e, positions): w interleaves u with one component word e.

    e ranges over nonempty complete component words; u keeps the rest.
    Membership of u in the iterated shuffle is not checked here.
    """
    out = set()
    w = tuple(w)
    for e in language_upto(P, len(w)):
        if not e:
            continue
        for pos in _subsequence_positions(w, tuple(e)):
            taken = set(pos)
            u = tuple(a for i, a in enumerate(w) if i not in taken)
            out.add((u, tuple(e), pos))
    return out


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
    eng = engine_for(P)
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
