"""Finite deterministic automata and semiautomata.

A semiautomaton is a Dfa whose finals are its states: it recognizes the
prefix-closed language of the words it can read.  complete() turns one into
a dfa whose added sink rejects.

Alphabets may consist of plain symbols, indexed symbols (``a@1``), checked
symbols (``^a``), or opaque composite objects such as counter transitions.
Everything downstream (shuffle engines, powerset constructions, track
products) consumes the same two types: Letter and Dfa.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Optional


class ShufflecheckError(Exception):
    """The base of every error the package raises for invalid input or a
    spent budget; a ValueError is left for misuse of the API."""


class AutomatonError(ShufflecheckError):
    pass


class ParseError(AutomatonError):
    pass


class NondeterminismError(AutomatonError):
    pass


class EmptyLanguage(AutomatonError):
    pass


class AlphabetMismatch(AutomatonError):
    pass


class UnknownLetter(AutomatonError):
    pass


# Interning (hash-consing).  An interned class keeps a weak table from its
# fields to the one live object with those fields, so equal values are one
# object while any of them is alive, compared and hashed by identity, and a
# value lives only as long as some caller holds it.  Its __new__ looks the
# key up in the table without a lock and calls `intern` only on a miss; the
# one lock guards creation, so two threads never make two objects for one
# value.  Its __reduce__ rebuilds through __new__, so copy and pickle return
# the interned object instead of a second one.
_INTERN_LOCK = threading.Lock()


def intern(table, key, cls, **fields):
    """The object that table holds for key, made with fields and stored
    there if it is still missing once the lock is held."""
    with _INTERN_LOCK:
        self = table.get(key)
        if self is None:
            self = object.__new__(cls)
            for name, value in fields.items():
                object.__setattr__(self, name, value)
            table[key] = self
        return self


_LETTERS = weakref.WeakValueDictionary()  # (symbol, index, mark) -> Letter


@dataclass(frozen=True, eq=False, init=False)
class Letter:
    """A single alphabet symbol.

    symbol is normally a string but may be any hashable object (derived
    alphabets use counter transitions as symbols).  index carries the copy
    number of an indexed alphabet; mark distinguishes the disjoint checked
    copy of an alphabet.

    Interned (`intern`), so the (state, letter) keys of every transition
    dict hash without a Python call.
    """

    __slots__ = ("symbol", "index", "mark", "__weakref__")
    symbol: Any
    index: Optional[int]
    mark: Optional[str]  # None | "checked"

    def __new__(cls, symbol: Any, index: Optional[int] = None, mark: Optional[str] = None):
        key = (symbol, index, mark)
        self = _LETTERS.get(key)
        if self is None:
            self = intern(_LETTERS, key, cls, symbol=symbol, index=index, mark=mark)
        return self

    def __reduce__(self):
        return (Letter, (self.symbol, self.index, self.mark))

    def __str__(self) -> str:
        text = str(self.symbol)
        if self.index is not None:
            text = f"{text}@{self.index}"
        if self.mark == "checked":
            text = f"^{text}"
        return text

    def checked(self) -> "Letter":
        return Letter(self.symbol, self.index, "checked")

    def unchecked(self) -> "Letter":
        return Letter(self.symbol, self.index, None)


Word = tuple  # tuple[Letter, ...]


def word(text: str) -> Word:
    """Build a word of plain one-character letters from a string."""
    return tuple(Letter(ch) for ch in text)


def letters(text: str) -> tuple:
    """Parse a space-separated letter list ('a b@2 ^c')."""
    return tuple(parse_letter(tok) for tok in text.split())


def parse_letter(tok: str) -> Letter:
    mark = None
    if tok.startswith("^"):
        mark = "checked"
        tok = tok[1:]
    index = None
    if "@" in tok:
        sym, _, idx = tok.rpartition("@")
        if not idx.isdecimal():
            raise ParseError(f"bad letter index in {tok!r}")
        try:
            tok, index = sym, int(idx)
        except ValueError:  # more digits than int converts
            raise ParseError(f"letter index of {len(idx)} digits is too long") from None
    if not tok:
        raise ParseError("empty letter")
    return Letter(tok, index, mark)


@dataclass(frozen=True)
class Dfa:
    """Deterministic automaton or semiautomaton.

    A semiautomaton is a Dfa whose finals are its states: it is built
    with empty finals and gets its states, so finals is the one notion of
    acceptance for both kinds.  complete() turns it into a dfa whose sink
    rejects.

    alphabet keeps declaration order; ties in counterexample searches are
    broken by that order.  delta is a partial function given as a dict keyed
    by (state, letter).

    A Dfa is never changed after it is built, delta included.  Its hash,
    its normal, complete and grave forms and its live states are therefore
    each computed at most once and kept on the object.
    """

    alphabet: tuple
    states: frozenset
    delta: dict
    initial: str
    finals: frozenset = frozenset()
    kind: str = "dfa"  # "dfa" | "semiautomaton"

    def __post_init__(self):
        if self.kind == "semiautomaton":
            if self.finals and self.finals != self.states:
                raise AutomatonError("a semiautomaton accepts in every state")
            object.__setattr__(self, "finals", self.states)
        if self.initial not in self.states:
            raise AutomatonError(f"initial state {self.initial!r} not declared")
        if not self.finals <= self.states:
            raise AutomatonError("finals outside the state set")
        alpha = set(self.alphabet)
        for (q, a), p in self.delta.items():
            if q not in self.states or p not in self.states:
                raise AutomatonError(f"transition {q}-{a}->{p} uses unknown state")
            if a not in alpha:
                raise AutomatonError(f"transition on undeclared letter {a}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild from the fields and never carry the memo:
        # string hashes, and so _hash, differ between processes
        return (
            Dfa,
            (self.alphabet, self.states, self.delta, self.initial, self.finals, self.kind),
        )

    # The memo.  cached_property writes to the instance __dict__, which a
    # frozen dataclass allows.  A form is None when the Dfa is that form
    # itself: a flag, not a reference to itself, so reference counting
    # still frees it.

    @cached_property
    def _hash(self) -> int:
        # delta is a dict, so the generated frozen-dataclass hash would fail
        return hash(
            (self.alphabet, self.states, frozenset(self.delta.items()),
             self.initial, self.finals, self.kind)
        )

    @cached_property
    def _normal(self) -> Optional["Dfa"]:
        return _own_form(_trimmed(self), "_normal")

    @cached_property
    def _complete(self) -> Optional["Dfa"]:
        return _own_form(_completed(self), "_complete")

    @cached_property
    def _grave(self) -> Optional["Dfa"]:
        return _own_form(_graved(self), "_grave")

    @cached_property
    def _live(self) -> frozenset:
        return frozenset(_coreachable(self, self.finals))

    @property
    def is_semiautomaton(self) -> bool:
        return self.kind == "semiautomaton"

    def run(self, w: Word):
        q = self.initial
        for a in w:
            q = self.delta.get((q, a))
            if q is None:
                return None
        return q


def _own_form(derived: Optional[Dfa], form: str) -> Optional[Dfa]:
    """Flag a freshly derived Dfa as its own form, so that deriving that
    form from it returns it; None (nothing derived) passes through."""
    if derived is not None:
        derived.__dict__[form] = None
    return derived


def parse_automaton(text: str) -> Dfa:
    """Parse the line-based automaton interchange format."""
    kind = None
    alphabet: list = []
    states: list = []
    initial = None
    finals: list = []
    delta: dict = {}
    seen_finals_line = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "kind":
            if value not in ("dfa", "semiautomaton"):
                raise ParseError(f"line {lineno}: unknown kind {value!r}")
            kind = value
        elif key == "alphabet":
            for tok in value.split():
                a = parse_letter(tok)
                if a in alphabet:
                    raise ParseError(f"line {lineno}: duplicate letter {tok}")
                alphabet.append(a)
        elif key == "states":
            states.extend(value.split())
        elif key == "initial":
            initial = value
        elif key == "finals":
            seen_finals_line = True
            finals.extend(value.split())
        elif key == "trans":
            parts = value.split()
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: trans needs 'q a p'")
            q, tok, p = parts
            a = parse_letter(tok)
            if (q, a) in delta:
                raise NondeterminismError(
                    f"line {lineno}: second transition from ({q}, {tok})"
                )
            delta[(q, a)] = p
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
    if kind is None:
        raise ParseError("missing 'kind:' line")
    if initial is None:
        raise ParseError("missing 'initial:' line")
    if kind == "semiautomaton" and seen_finals_line:
        raise ParseError("semiautomaton must not declare finals")
    try:
        return Dfa(
            alphabet=tuple(alphabet),
            states=frozenset(states),
            delta=delta,
            initial=initial,
            finals=frozenset(finals),
            kind=kind,
        )
    except AutomatonError as exc:
        raise ParseError(str(exc)) from exc


def serialize_automaton(a: Dfa) -> str:
    lines = [f"kind: {a.kind}"]
    lines.append("alphabet: " + " ".join(str(x) for x in a.alphabet))
    lines.append("states: " + " ".join(sorted(a.states)))
    lines.append(f"initial: {a.initial}")
    if not a.is_semiautomaton:
        lines.append("finals: " + " ".join(sorted(a.finals)))
    for (q, x), p in sorted(a.delta.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        lines.append(f"trans: {q} {x} {p}")
    return "\n".join(lines) + "\n"


def reachable(a: Dfa) -> set:
    """The states reached from the initial state."""
    seen = {a.initial}
    queue = deque([a.initial])
    while queue:
        q = queue.popleft()
        for x in a.alphabet:
            p = a.delta.get((q, x))
            if p is not None and p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


def _coreachable(a: Dfa, targets: Iterable) -> set:
    rev: dict = {}
    for (q, _x), p in a.delta.items():
        rev.setdefault(p, set()).add(q)
    seen = set(targets)
    queue = deque(seen)
    while queue:
        p = queue.popleft()
        for q in rev.get(p, ()):
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def live_states(a: Dfa) -> frozenset:
    """The states of a from which some word reaches a final state."""
    return a._live


def normalize(a: Dfa) -> Dfa:
    """Trim to states that lie on some accepting path.

    Raises EmptyLanguage when nothing survives.  The result is its own
    normal form: normalize(normalize(a)) is normalize(a).
    """
    return a._normal or a


def _trimmed(a: Dfa) -> Optional[Dfa]:
    """a trimmed, or None when every state of a survives."""
    keep = reachable(a)
    keep &= _coreachable(a, a.finals & keep)
    if a.initial not in keep:
        raise EmptyLanguage("automaton recognizes the empty language")
    if len(keep) == len(a.states):
        return None
    delta = {
        (q, x): p for (q, x), p in a.delta.items() if q in keep and p in keep
    }
    return Dfa(
        alphabet=a.alphabet,
        states=frozenset(keep),
        delta=delta,
        initial=a.initial,
        finals=frozenset(a.finals & keep),
        kind=a.kind,
    )


_SINK = "_sink"


def complete(a: Dfa) -> Dfa:
    """Make delta total, adding one fresh non-final sink if needed.

    The sink rejects, so a completed semiautomaton becomes a dfa.  The
    result is its own completion: complete(complete(a)) is complete(a)."""
    return a._complete or a


def _completed(a: Dfa) -> Optional[Dfa]:
    """a with a sink added, or None when delta is already total."""
    missing = [
        (q, x) for q in a.states for x in a.alphabet if (q, x) not in a.delta
    ]
    if not missing:
        return None
    sink = _SINK
    while sink in a.states:
        sink += "_"
    delta = dict(a.delta)
    for q, x in missing:
        delta[(q, x)] = sink
    for x in a.alphabet:
        delta[(sink, x)] = sink
    return Dfa(
        alphabet=a.alphabet,
        states=a.states | {sink},
        delta=delta,
        initial=a.initial,
        finals=a.finals,
        kind="dfa",
    )


def grave(a: Dfa) -> Dfa:
    """The prefix recognizer: same automaton with every state accepting.

    The result is its own prefix recognizer: grave(grave(a)) is grave(a)."""
    return a._grave or a


def _graved(a: Dfa) -> Optional[Dfa]:
    """a with every state accepting, or None when a is such a dfa."""
    if a.kind == "dfa" and a.finals == a.states:
        return None
    return Dfa(
        alphabet=a.alphabet,
        states=a.states,
        delta=a.delta,
        initial=a.initial,
        finals=a.states,
        kind="dfa",
    )


def _check_same_alphabet(a: Dfa, b: Dfa):
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetMismatch(
            f"alphabets differ: {sorted(map(str, a.alphabet))} vs "
            f"{sorted(map(str, b.alphabet))}"
        )


def includes(sup: Dfa, sub: Dfa):
    """L(sub) <= L(sup)?  Returns True or a shortest witness in L(sub)\\L(sup).

    Ties among shortest witnesses are broken by the declaration order of
    sup's alphabet (BFS explores letters in that order).
    """
    _check_same_alphabet(sup, sub)
    sup_c = complete(sup)
    sub_c = complete(sub)
    start = (sup_c.initial, sub_c.initial)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (p, q), w = queue.popleft()
        if q in sub_c.finals and p not in sup_c.finals:
            return w
        for x in sup.alphabet:
            nxt = (sup_c.delta[(p, x)], sub_c.delta[(q, x)])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w + (x,)))
    return True


def equivalent(a: Dfa, b: Dfa) -> bool:
    return includes(a, b) is True and includes(b, a) is True


def is_prefix_closed(a: Dfa) -> bool:
    """True iff the recognized language contains all its prefixes."""
    try:
        trimmed = normalize(a)
    except EmptyLanguage:
        return True  # the empty language is vacuously prefix closed
    return trimmed.finals == trimmed.states


def subword_closed(a: Dfa) -> bool:
    """True iff the recognized language holds every scattered subword of
    each word it accepts: it is downward closed in the subword order.

    Walks the pairs (state of w, state of u, or None once u has left a)
    from (initial, initial).  Each letter moves w and is either kept by u
    or deleted from it, so the pairs reached are those of the words w that
    a reads and their subwords u.  The language is closed exactly when no
    pair reached has w accepted and u rejected; a shortest witness is at
    most |states|·(|states| + 1) letters long.  The start pair, where u is
    w, is never such a pair, so each pair is tested as it is first reached.
    """
    delta = a.delta
    finals = a.finals
    start = (a.initial, a.initial)
    seen = {start}
    stack = [start]
    while stack:
        qw, qu = stack.pop()
        for x in a.alphabet:
            pw = delta.get((qw, x))
            if pw is None:
                continue
            for pu in (qu, None if qu is None else delta.get((qu, x))):
                pair = (pw, pu)
                if pair not in seen:
                    if pw in finals and pu not in finals:
                        return False
                    seen.add(pair)
                    stack.append(pair)
    return True


def accepts(a: Dfa, w: Word) -> bool:
    alpha = set(a.alphabet)
    for x in w:
        if x not in alpha:
            raise UnknownLetter(f"letter {x} not in the alphabet")
    q = a.run(w)
    return q is not None and q in a.finals


def language_upto(a: Dfa, n: int):
    """All accepted words of length <= n, in length-then-declaration order."""
    out = []
    frontier = [((), a.initial)]
    finals = a.finals
    if a.initial in finals:
        out.append(())
    for _ in range(n):
        nxt = []
        for w, q in frontier:
            for x in a.alphabet:
                p = a.delta.get((q, x))
                if p is None:
                    continue
                w2 = w + (x,)
                nxt.append((w2, p))
                if p in finals:
                    out.append(w2)
        frontier = nxt
        if not frontier:
            break
    return out
