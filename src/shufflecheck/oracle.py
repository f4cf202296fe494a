"""Brute-force word sets: the iterated shuffle up to a length, and the ways
to remove one component word from a word.

Both work definition-first on explicit finite word sets, with hard caps on
length and cardinality, and the decision pipeline does not call them.  They
stay in the package because the benchmark's tracer wraps
iterated_shuffle_upto and one_factor_removals by these names here (ROADMAP
item 2).  The rest of the brute-force reference, the word-level falsifier
among it, lives with the tests that use it, in tests/oracle_reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .automata import Dfa, Word, language_upto
from .engine import BudgetExceeded

DEFAULT_MAX_LEN = 8
DEFAULT_MAX_CARD = 200_000


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
