"""Indexed language families and the self-similarity view of closure.

Given a prefix-closed base language L with ε ∈ L ⊆ V, the family member
for an index set I consists of indexed words whose per-index subwords all
lie in L and whose index-erased image lies in V.  The family is
self-similar (stable under projecting away index sets) exactly when the
closure decision for (L, V) comes out positive, so small instances give a
concrete cross-check of the decision procedures.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional

from .automata import (
    Dfa,
    Letter,
    ShufflecheckError,
    Word,
    accepts,
    includes,
    is_prefix_closed,
    language_upto,
    normalize,
)


class NotASubset(ShufflecheckError):
    pass


class NotPrefixClosed(ShufflecheckError):
    pass


def pi(I: Iterable, w: Word) -> Word:
    """Keep only the letters whose index lies in I."""
    I = frozenset(I)
    return tuple(a for a in w if a.index in I)


def _validate_base(L: Dfa, V: Dfa) -> tuple:
    L = normalize(L)
    V = normalize(V)
    if not accepts(L, ()):
        raise NotPrefixClosed("the base language must contain the empty word")
    if not (is_prefix_closed(L) and is_prefix_closed(V)):
        raise NotPrefixClosed("both languages must be prefix closed")
    witness = includes(V, L)
    if witness is not True:
        raise NotASubset(
            f"base language not included in the constraint language, "
            f"witness {witness}"
        )
    return L, V


def build_family_member(L: Dfa, V: Dfa, I: Iterable) -> Dfa:
    """Automaton of the family member for index set I.

    One copy of L runs per index; an index-erased copy of V runs globally.
    The result is prefix closed with every state accepting.
    """
    L, V = _validate_base(L, V)
    indices = tuple(sorted(set(I)))
    alphabet = tuple(
        Letter(a.symbol, i, a.mark) for i in indices for a in L.alphabet
    )
    start = (V.initial,) + tuple(L.initial for _ in indices)
    pos = {i: k + 1 for k, i in enumerate(indices)}

    def name(state: tuple) -> str:
        return "|".join(state)

    seen = {start}
    queue = [start]
    delta = {}
    while queue:
        state = queue.pop()
        for a in alphabet:
            base = Letter(a.symbol, None, a.mark)
            v2 = V.delta.get((state[0], base))
            if v2 is None:
                continue
            k = pos[a.index]
            q2 = L.delta.get((state[k], base))
            if q2 is None:
                continue
            nxt = state[:k] + (q2,) + state[k + 1 :]
            nxt = (v2,) + nxt[1:]
            delta[(name(state), a)] = name(nxt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    states = frozenset(name(s) for s in seen)
    return normalize(
        Dfa(alphabet, states, delta, name(start), states, "dfa")
    )


def _subsets(indices: tuple):
    """Nonempty proper subsets, smallest first, ties by sorted content."""
    import itertools

    for size in range(1, len(indices)):
        for sub in itertools.combinations(indices, size):
            yield frozenset(sub)


def check_self_similarity(
    L: Dfa, V: Dfa, max_size: int = 3, maxlen: int = 8
) -> Optional[dict]:
    """Search for a family word whose projection leaves its family.

    Words are tried in length-then-alphabet order (all letters of copy 1
    before copy 2), projections smallest index set first.  Returns the
    first violation as {'I', 'I_prime', 'word', 'projection'}, or None when
    every instance up to the bounds is stable.
    """
    L, V = _validate_base(L, V)

    @lru_cache(maxsize=None)
    def member(I: frozenset) -> Dfa:
        return build_family_member(L, V, I)

    for k in range(1, max_size + 1):
        I = tuple(range(1, k + 1))
        big = member(frozenset(I))
        for w in language_upto(big, maxlen):
            for sub in _subsets(I):
                p = pi(sub, w)
                if not accepts(member(sub), p):
                    return {
                        "I": frozenset(I),
                        "I_prime": sub,
                        "word": tuple(w),
                        "projection": p,
                    }
    return None
