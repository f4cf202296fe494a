"""Counter-vector semiautomaton for iterated shuffles of a component language.

States are finite-support counter vectors over the component automaton's
states; each counter says how many interleaved components currently sit at
that state.  The full transition relation is infinite but determined by a
finite core plus a uniform shift law, so membership queries and all
downstream constructions only ever touch finitely many vectors.

`ShuffleEngine` is the one place that turns the component automaton's
edges into steps.  It builds the core once, as two tables: `opening`, the
steps from 0 that open a component on each letter, and `moving`, the
steps that move one component out of a state on a letter.  The core is
the one step basis: every step is a core step shifted by a vector
(`successors`), a single tracked component runs on core steps alone, the
Petri nets of `petri` take their arcs from the core steps' source and
target vectors, and every walk whose result follows its order meets
steps in one order, `step_order`.
The deletion system's walks share CHECK_ZERO, a closed tracked component.

Word membership (`shuffle_member`, `pre_shuffle_member`) and the
falsifier (`sp_falsify`) run the counter system on packed vectors
instead: one int with a field per component state, and per letter a
tuple of (guard, effect) pairs, one per core step on it, in one table
(`ShuffleEngine.word_steps_on`) built when a walk first reaches the
letter, so a step is one test and one addition and no walk makes a
`CounterVector`.  The product walks of `petri` step the same way, on
fields as wide as their cap needs (`walk_table`).  A
`Layout` says how vectors are packed, and a `Fragment` is a finite step
set on packed vectors: the fragment Δ as the walks find it, the closure
search reads it and a certificate prints it, with the text a step
object prints (`step_text`), and as replay reads it back
(`parse_fragment`).

Counter vectors and transitions are interned through `automata.intern`,
as letters are, so each is built and rendered once, however many sets
and dicts hold it.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .automata import (
    Dfa,
    Letter,
    ParseError,
    ShufflecheckError,
    UnknownLetter,
    Word,
    intern,
    parse_letter,
    reachable,
    subword_closed,
)


START = "start"
INNER = "inner"
END = "end"
START_END = "start_end"
KINDS = (START, INNER, END, START_END)


# Bits per component state in a packed vector of the word walk
# (`ShuffleEngine.member_frontier`).  A word of n letters opens at most n
# components, so its counts fit in n.bit_length() bits, and one table of
# this width serves every word under 2**16 letters.
WORD_FIELD = 16


_VECTORS = weakref.WeakValueDictionary()  # entries -> CounterVector
_STEPS = weakref.WeakValueDictionary()  # (source, letter, target, kind) -> step


@dataclass(frozen=True, eq=False, init=False)
class CounterVector:
    """Sparse vector of non-negative counts keyed by component-automaton state.

    Interned (`automata.intern`).  Build one with `make` (or directly from
    already sorted positive entries).
    """

    __slots__ = ("entries", "norm", "_text", "__weakref__")
    entries: tuple  # sorted tuple of (state, positive count)
    norm: int  # sum of the counts, kept when the vector is interned

    def __new__(cls, entries: tuple = ()):
        self = _VECTORS.get(entries)
        if self is None:
            self = intern(
                _VECTORS, entries, cls,
                entries=entries, norm=sum(n for _, n in entries), _text=None,
            )
        return self

    def __reduce__(self):
        return (CounterVector, (self.entries,))

    @staticmethod
    def make(mapping) -> "CounterVector":
        items = tuple(sorted((q, n) for q, n in dict(mapping).items() if n))
        for _, n in items:
            if n < 0:
                raise ValueError("negative count")
        return CounterVector(items)

    @staticmethod
    def unit(q) -> "CounterVector":
        return CounterVector(((q, 1),))

    def get(self, q) -> int:
        for state, n in self.entries:
            if state == q:
                return n
        return 0

    def is_zero(self) -> bool:
        return not self.entries

    def add(self, other: "CounterVector") -> "CounterVector":
        if not other.entries:
            return self
        if not self.entries:
            return other
        counts = dict(self.entries)
        for q, n in other.entries:
            counts[q] = counts.get(q, 0) + n
        return CounterVector(tuple(sorted(counts.items())))

    def sub(self, other: "CounterVector") -> Optional["CounterVector"]:
        """Componentwise difference, or None when it would go negative."""
        if not other.entries:
            return self
        counts = dict(self.entries)
        for q, n in other.entries:
            m = counts.get(q, 0) - n
            if m < 0:
                return None
            # q is already a key, so the dict keeps its sorted order
            if m:
                counts[q] = m
            else:
                del counts[q]
        return CounterVector(tuple(counts.items()))

    def geq(self, other: "CounterVector") -> bool:
        return self.sub(other) is not None

    def leq(self, other: "CounterVector") -> bool:
        return other.geq(self)

    def decrements(self) -> Iterable["CounterVector"]:
        for q, _ in self.entries:
            yield self.sub(CounterVector.unit(q))

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = vector_text(self.entries)
            object.__setattr__(self, "_text", text)
        return text


def vector_text(entries: tuple) -> str:
    """The text of the vector with these sorted entries: '(0)' or
    '(II:1 III:2)'."""
    if not entries:
        return "(0)"
    return "(" + " ".join(f"{q}:{n}" for q, n in entries) + ")"


def step_text(source: str, letter: Letter, target: str) -> str:
    """The text '(f) a (g)' of a step from its vectors' texts, the one
    text of a step, packed (`Fragment.text`) or not."""
    return f"{source} {letter} {target}"


def tagged_text(text: str, kind: str) -> str:
    """A step's text '(f) a (g)' with its kind: '(f) a (g) [kind]'."""
    return f"{text} [{kind}]"


ZERO = CounterVector()


class _CheckZero:
    """The type of CHECK_ZERO, the tracked component's closed state in the
    deletion system: unlike ZERO, it opens no new component."""

    __slots__ = ()

    def __reduce__(self):  # pickle and copy hand back CHECK_ZERO itself
        return "CHECK_ZERO"

    def __repr__(self):
        return "0#"


CHECK_ZERO = _CheckZero()


def parse_vector(text: str) -> CounterVector:
    """Parse '(0)', '(II:1)', '(II:1 III:2)' or the bare forms without parens."""
    return CounterVector(_vector_entries(text))


def _vector_entries(text: str) -> tuple:
    """The sorted positive entries of the vector `parse_vector` reads."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    if body in ("0", ""):
        return ()
    counts: dict = {}
    for tok in body.split():
        if ":" not in tok:
            raise ParseError(f"bad vector entry {tok!r}")
        q, _, n = tok.rpartition(":")
        if not n.isdecimal():
            raise ParseError(f"bad count in {tok!r}")
        try:
            counts[q] = counts.get(q, 0) + int(n)
        except ValueError:  # more digits than int converts
            raise ParseError(f"count of {len(n)} digits is too long") from None
    return tuple(sorted((q, n) for q, n in counts.items() if n))


@dataclass(frozen=True, eq=False, init=False)
class ShuffleTransition:
    """One step (source, letter, target) of the counter semiautomaton,
    tagged by its kind.

    Interned (`automata.intern`).  The kind is checked when a step is
    first made.
    """

    __slots__ = ("source", "letter", "target", "kind", "_text", "__weakref__")
    source: CounterVector
    letter: Letter
    target: CounterVector
    kind: str

    def __new__(cls, source: CounterVector, letter: Letter, target: CounterVector, kind: str):
        key = (source, letter, target, kind)
        self = _STEPS.get(key)
        if self is None:
            if kind not in KINDS:
                raise ValueError(f"unknown kind {kind!r}")
            self = intern(
                _STEPS, key, cls,
                source=source, letter=letter, target=target, kind=kind, _text=None,
            )
        return self

    def __reduce__(self):
        return (ShuffleTransition, (self.source, self.letter, self.target, self.kind))

    def shift(self, h: CounterVector) -> "ShuffleTransition":
        if not h.entries:
            return self
        return ShuffleTransition(self.source.add(h), self.letter, self.target.add(h), self.kind)

    def checked(self) -> "ShuffleTransition":
        return ShuffleTransition(self.source, self.letter.checked(), self.target, self.kind)

    def unchecked(self) -> "ShuffleTransition":
        return ShuffleTransition(self.source, self.letter.unchecked(), self.target, self.kind)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = step_text(str(self.source), self.letter, str(self.target))
            object.__setattr__(self, "_text", text)
        return text

    def tagged_str(self) -> str:
        return tagged_text(str(self), self.kind)


def step_order(t: ShuffleTransition) -> tuple:
    """The sort key of the one order in which walks meet steps: text, then
    kind, which the text leaves out, so it follows the steps' values."""
    return (str(t), t.kind)


# '(f) a (g)' with an optional '[kind]' tag, and nothing around them
_TRANSITION = re.compile(
    r"\s*\(([^()]*)\)\s*([^\s()]+)\s*\(([^()]*)\)\s*(?:\[\s*(%s)\s*\])?\s*"
    % "|".join(KINDS)
)


def parse_transition(text: str) -> ShuffleTransition:
    """Parse '(f) a (g)' with an optional trailing '[kind]' tag."""
    return _read_transition(text, parse_vector, parse_letter)


def parse_transitions(texts) -> frozenset:
    """The steps of texts, each parsed as `parse_transition` parses it,
    reading each distinct vector text and letter text once."""
    vector, letter = _memo(parse_vector), _memo(parse_letter)
    return frozenset(_read_transition(text, vector, letter) for text in texts)


def _memo(parse):
    """parse, reading each distinct text once."""
    seen: dict = {}

    def read(text: str):
        out = seen.get(text)
        if out is None:
            out = seen[text] = parse(text)
        return out

    return read


def _read_transition(text: str, vector, letter) -> ShuffleTransition:
    src, a, tgt, kind = _read_step(text, vector, letter)
    return ShuffleTransition(src, a, tgt, kind or infer_kind(src.entries, tgt.entries))


def _read_step(text: str, vector, letter) -> tuple:
    """(source, letter, target, kind or None) of a step's text, each
    vector read by `vector` and the letter by `letter`."""
    m = _TRANSITION.fullmatch(text)
    if m is None:
        raise ParseError(f"bad transition {text!r}")
    src, tgt = vector(m[1]), vector(m[3])
    return src, letter(m[2]), tgt, m[4]


def infer_kind(src: tuple, tgt: tuple) -> str:
    """The kind of an untagged step between vectors with these entries."""
    # untagged text can only distinguish kinds by the norm change; a
    # norm-preserving step with equal endpoints is read as start_end
    d = sum(n for _q, n in tgt) - sum(n for _q, n in src)
    if d == 1:
        return START
    if d == -1:
        return END
    if src == tgt:
        return START_END
    return INNER


def parse_fragment(texts) -> "Fragment":
    """The steps of texts, read as `parse_transitions` reads them, packed
    (`Fragment.of_entries`) without making a vector or step object."""
    vector, letter = _memo(_vector_entries), _memo(parse_letter)
    steps = set()
    for text in texts:
        src, a, tgt, kind = _read_step(text, vector, letter)
        steps.add((src, a, tgt, kind or infer_kind(src, tgt)))
    return Fragment.of_entries(steps)


def count_width(largest: int) -> int:
    """Bits per field of a `Layout` whose counts reach at most largest."""
    return largest.bit_length() + 1


class Layout:
    """One packing of counter vectors as ints: a `width`-bit field per
    state of `names`, which are sorted, the first state's field lowest.

    Every count a packed vector holds stays below 1 << (width - 1), so the
    top bit of each field is spare: adding one to a count never carries
    into the next field, and with `high`, the spare bits of every field,
    g >= f field by field exactly when ((g | high) - f) & high == high.
    """

    __slots__ = ("width", "shift", "field", "high")

    def __init__(self, names: tuple, width: int):
        self.width = width
        self.shift = dict(zip(names, range(0, width * len(names), width)))
        self.field = field = (1 << width) - 1
        # the top bit of a field times 1 + 2**width + 2**(2 * width) + ...
        self.high = (1 << (width - 1)) * ((1 << width * len(names)) - 1) // field

    def pack(self, entries: tuple) -> Optional[int]:
        """The vector with these entries packed, or None when a state of
        it has no field or a count reaches its field's spare bit."""
        out = 0
        top = 1 << (self.width - 1)
        for q, n in entries:
            k = self.shift.get(q)
            if k is None or n >= top:
                return None
            out += n << k
        return out

    def entries(self, v: int) -> tuple:
        field = self.field
        return tuple((q, v >> k & field) for q, k in self.shift.items() if v >> k & field)

    def vector(self, v: int) -> CounterVector:
        return CounterVector(self.entries(v))

    def text(self, v: int) -> str:
        """The text of the packed vector v, as `CounterVector` prints it."""
        return vector_text(self.entries(v))


# the layout of a fragment without steps
_NO_FIELDS = Layout((), 1)


class Fragment:
    """A finite set of steps on packed vectors, all in one `Layout`: each
    step is (f, a, g, kind), its packed source, letter, packed target and
    kind.  This is how the fragment routes, the closure search and a
    Holds certificate pass a transition fragment Δ; step objects are made
    from it only on request (`transitions`).

    A fragment keeps the text of each vector and step it has printed;
    texts, if given, holds vector texts printed already, as the walk that
    made the fragment passes its own.
    """

    __slots__ = ("layout", "steps", "_vector_texts", "_step_texts")

    def __init__(self, layout: Layout, steps: frozenset, texts: Optional[dict] = None):
        self.layout = layout
        self.steps = steps
        self._vector_texts = {} if texts is None else texts
        self._step_texts: dict = {}

    @staticmethod
    def of(delta) -> "Fragment":
        """The steps of delta, a set of `ShuffleTransition`s, packed."""
        return Fragment.of_entries(
            (t.source.entries, t.letter, t.target.entries, t.kind) for t in delta
        )

    @staticmethod
    def of_entries(steps) -> "Fragment":
        """steps, each (source entries, letter, target entries, kind),
        packed in the layout of the states they name, wide enough for
        their largest count."""
        steps = list(steps)
        if not steps:  # as most zero-fragment certificates are
            return Fragment(_NO_FIELDS, frozenset())
        vectors = {v for s, _a, t, _k in steps for v in (s, t)}
        named = {e for v in vectors for e in v}
        layout = Layout(
            tuple(sorted({q for q, _n in named})),
            count_width(max((n for _q, n in named), default=0)),
        )
        packed = {v: layout.pack(v) for v in vectors}
        return Fragment(layout, frozenset(
            (packed[s], a, packed[t], kind) for s, a, t, kind in steps
        ))

    def relaid(self, layout: Layout) -> "Fragment":
        """These steps in another layout, less those it cannot hold."""
        moved = {}
        for f, _a, g, _k in self.steps:
            for v in (f, g):
                if v not in moved:
                    moved[v] = layout.pack(self.layout.entries(v))
        return Fragment(layout, frozenset(
            (moved[f], a, moved[g], kind)
            for f, a, g, kind in self.steps
            if moved[f] is not None and moved[g] is not None
        ))

    def vector_text(self, v: int) -> str:
        """`Layout.text` of v, kept for the fragment's later reads."""
        text = self._vector_texts.get(v)
        if text is None:
            text = self._vector_texts[v] = self.layout.text(v)
        return text

    def text(self, step: tuple) -> str:
        """The step's text, as its `ShuffleTransition` prints it, kept for
        the fragment's later reads."""
        text = self._step_texts.get(step)
        if text is None:
            f, a, g, _kind = step
            vector = self.vector_text
            text = self._step_texts[step] = step_text(vector(f), a, vector(g))
        return text

    def lines(self) -> tuple:
        """The steps' texts with their kinds, as `tagged_str` prints them,
        sorted: a certificate's delta lines."""
        return tuple(sorted(tagged_text(self.text(step), step[3]) for step in self.steps))

    def transitions(self) -> frozenset:
        """The steps as `ShuffleTransition`s."""
        vector = self.layout.vector
        return frozenset(
            ShuffleTransition(vector(f), a, vector(g), kind) for f, a, g, kind in self.steps
        )


class Computation(tuple):
    """A path in the counter semiautomaton starting at the zero vector."""

    def __new__(cls, steps=()):
        steps = tuple(steps)
        prev = ZERO
        for step in steps:
            if step.source != prev:
                raise NotAComputation(
                    f"step {step} does not continue from {prev}"
                )
            prev = step.target
        return super().__new__(cls, steps)

    @property
    def final(self) -> CounterVector:
        return self[-1].target if self else ZERO

    def label(self) -> Word:
        return tuple(step.letter for step in self)

    def __str__(self) -> str:
        if not self:
            return "ε"
        return " ; ".join(str(s) for s in self)


class NotAComputation(ShufflecheckError):
    pass


def reached(steps) -> frozenset:
    """The vectors reached from 0 along the finite step set."""
    targets: dict = {}
    for t in steps:
        targets.setdefault(t.source, []).append(t.target)
    reach = {ZERO}
    frontier = [ZERO]
    while frontier:
        for g in targets.get(frontier.pop(), ()):
            if g not in reach:
                reach.add(g)
                frontier.append(g)
    return frozenset(reach)


class ShuffleEngine:
    """Per-component-automaton precomputation plus transition queries.

    A step on letter a moves one component along P's a-edge from q (or
    opens one at the initial state, from 0) to p: it leads the component
    into p when p is non-dead (START from 0, INNER from q), closes it
    when p is final (START_END, END), or both.  `opening` maps a letter,
    and `moving` a (state, letter) pair with an edge, to those steps from
    0 and from the unit vector of the state.

    `core` holds the opening steps and the moving steps out of
    `component_states`: the one step basis (`sigma_core`).  Its sources
    are 0 and the unit vectors of the component states, each reached from
    0 along core steps (a component state is entered by a nonempty word
    whose states can all continue), so a single tracked component takes
    every core step.  `ordered_core` lists the core in `step_order`.
    """

    def __init__(self, P: Dfa):
        self.P = P
        self.letters = frozenset(P.alphabet)
        # states able to continue a component: at least one outgoing edge
        self.non_dead = frozenset(q for (q, _a), _p in P.delta.items())
        # states a component can actually occupy: entered by reading at
        # least one letter and still able to continue
        reach = reachable(P)
        self.component_states = frozenset(
            p for (q, _a), p in P.delta.items() if q in reach and p in self.non_dead
        )
        finals = P.finals

        def steps(source: CounterVector, a: Letter, p) -> tuple:
            out = []
            if p in self.non_dead:
                kind = START if source.is_zero() else INNER
                out.append(ShuffleTransition(source, a, CounterVector.unit(p), kind))
            if p in finals:
                kind = START_END if source.is_zero() else END
                out.append(ShuffleTransition(source, a, ZERO, kind))
            return tuple(out)

        self.opening = {
            a: steps(ZERO, a, P.delta.get((P.initial, a))) for a in P.alphabet
        }
        self.moving = {
            (q, a): steps(CounterVector.unit(q), a, p)
            for (q, a), p in P.delta.items()
        }
        self.core = frozenset().union(
            *self.opening.values(),
            *(out for (q, _a), out in self.moving.items() if q in self.component_states),
        )
        # letter -> the core steps on it, which `packed_steps` packs
        self.core_on = {a: [] for a in P.alphabet}
        for t in self.core:
            self.core_on[t.letter].append(t)
        # letter -> `packed_steps` for WORD_FIELD-bit fields, built when a
        # walk first reaches the letter (`word_steps_on`)
        self.word_steps: dict = {}

    @cached_property
    def ordered_core(self) -> tuple:
        """The core in `step_order`."""
        return tuple(sorted(self.core, key=step_order))

    def successors(self, f: CounterVector, a: Letter) -> frozenset:
        """All transitions (f, a, g), tagged by kind: the core steps on a
        whose source f covers, shifted by f minus that source."""
        if a not in self.letters:
            raise UnknownLetter(f"letter {a} not in the alphabet")
        out = {ShuffleTransition(f, a, t.target.add(f), t.kind) for t in self.opening[a]}
        moving = self.moving
        for q, _n in f.entries:
            for t in moving.get((q, a), ()):
                out.add(ShuffleTransition(f, a, t.target.add(f.sub(t.source)), t.kind))
        return frozenset(out)

    def step_table(self):
        """A fresh memo of `successors` for one walk: steps(f, a) builds
        the steps of f on a the first time the walk asks, as a list in
        `step_order`, not a set, whose order follows memory addresses, and
        returns the same list after that.

        The table is the walk's own and dies with it; the engine keeps no
        steps.  A walk over the vector x V-state product asks for f's steps
        once per V-state that f meets, so without the table it would build
        them that many times.  A miss calls `successors`, so each build is
        still a call of that method.
        """
        table: dict = {}

        def steps(f: CounterVector, a: Letter) -> list:
            out = table.get((f, a))
            if out is None:
                out = sorted(self.successors(f, a), key=step_order)
                table[(f, a)] = out
            return out

        return steps

    def packed_steps(self, a: Letter, width: int) -> tuple:
        """The core steps on a (`core_on`), on packed vectors: ints holding
        one `width`-bit count per component state, in sorted state order.

        A step is a pair (guard, effect), and it takes f to f + effect
        when the guard is 0 or f & guard is nonzero.  An opening step has
        guard 0; a step moving a component out of q has q's field as its
        guard.  A core step's source and target are 0 or unit vectors, so
        its effect, target less source, is two shifts.  The core is every
        step's basis: no reachable vector counts a state outside
        `component_states`, so a shifted core step is every step there is.
        """
        if a not in self.letters:
            raise UnknownLetter(f"letter {a} not in the alphabet")
        shift = {q: width * i for i, q in enumerate(sorted(self.component_states))}
        field = (1 << width) - 1
        steps = []
        for t in self.core_on[a]:
            target = t.target.entries
            effect = 1 << shift[target[0][0]] if target else 0
            source = t.source.entries
            if source:
                k = shift[source[0][0]]
                steps.append((field << k, effect - (1 << k)))
            else:
                steps.append((0, effect))
        return tuple(steps)

    def word_steps_on(self, a: Letter) -> tuple:
        """`packed_steps(a, WORD_FIELD)`, built when a walk first reaches a
        and kept in `word_steps` for the engine's later walks."""
        return self._steps_on(self.word_steps, a, WORD_FIELD)

    def _steps_on(self, table: dict, a: Letter, width: int) -> tuple:
        """`packed_steps(a, width)`, built once into table."""
        steps = table.get(a)
        if steps is None:
            steps = table[a] = self.packed_steps(a, width)
        return steps

    def member_frontier(self, w: Word) -> set:
        """All vectors reachable from 0 along paths labeled w, packed
        (`packed_steps`) in fields wide enough for any count w reaches.

        A letter P does not read raises UnknownLetter once the walk
        reaches it, unless no vector is left by then.
        """
        if len(w) < 1 << WORD_FIELD:
            width, table = WORD_FIELD, self.word_steps
        else:  # wider fields, in a table of the walk's own
            width, table = len(w).bit_length(), {}
        frontier = {0}
        for a in w:
            # `_steps_on` inline while a's entry is built and not empty
            steps = table.get(a) or self._steps_on(table, a, width)
            frontier = {
                f + effect
                for f in frontier
                for guard, effect in steps
                if not guard or f & guard
            }
            if not frontier:
                break
        return frontier


# Kept apart from the engines, and more of them: a table is a few ints per
# core step, much smaller than an engine, and without it a caller whose
# components outnumber the kept engines would build a table with each
# engine it builds again.
@lru_cache(maxsize=1024)
def walk_table(P: Dfa, width: int) -> tuple:
    """(layout, steps) of the product walks over P's counter system on
    `width`-bit fields, built once.  layout is the `Layout` of
    `ShuffleEngine.packed_steps(a, width)`, a field per component state,
    as the vectors a walk reaches name no other state.  steps maps a
    letter to its core steps, each (guard, effect, kind, back): guard and
    effect as `packed_steps` gives them, and back the guard of the step
    run backward, from f + effect to f, 0 for a step that closes its
    component and else the field of the state it leads into.  They are
    sorted, so their order follows P alone.  The cache keeps both, so
    neither is to be changed."""
    eng = engine_for(P)
    layout = Layout(tuple(sorted(eng.component_states)), width)
    field, shift = layout.field, layout.shift
    steps = {a: [] for a in eng.core_on}
    for t in eng.core:
        # packed as `packed_steps` packs t, in one pass over the core
        target = t.target.entries
        if target:
            k = shift[target[0][0]]
            effect, back = 1 << k, field << k
        else:
            effect = back = 0
        source = t.source.entries
        if source:
            k = shift[source[0][0]]
            steps[t.letter].append((field << k, effect - (1 << k), t.kind, back))
        else:
            steps[t.letter].append((0, effect, t.kind, back))
    for out in steps.values():
        out.sort()
    return layout, steps


# Bounded so that a long-lived caller deciding many component languages
# does not keep every engine alive.
@lru_cache(maxsize=64)
def _engine(P: Dfa) -> ShuffleEngine:
    return ShuffleEngine(P)


def engine_for(P: Dfa) -> ShuffleEngine:
    return _engine(P)


def sigma_core(P: Dfa) -> frozenset:
    """The finite base set: every transition is a non-negative shift of it.

    Sources are restricted to vectors a running interleaving can occupy,
    so inner and end entries exist only for states that are entered by a
    nonempty word and can still continue.
    """
    return engine_for(P).core


def pre_shuffle_member(P: Dfa, w: Word) -> bool:
    """Is w a label of some interleaving of component prefixes?"""
    return bool(engine_for(P).member_frontier(w))


def shuffle_member(P: Dfa, w: Word) -> bool:
    """Is w an interleaving of complete component words?"""
    return 0 in engine_for(P).member_frontier(w)


MAX_FALSIFIER_LEN = 32

# A packed vector modulo this is its norm, the sum of its fields, while
# the norm is smaller, as a falsifier's is (at most MAX_FALSIFIER_LEN + 1)
# and the net route's norm search's (at most petri.NORM_DEPTH)
NORM_MOD = (1 << WORD_FIELD) - 1
assert MAX_FALSIFIER_LEN + 1 < NORM_MOD


class BudgetExceeded(ShufflecheckError):
    pass


def sp_falsify(P: Dfa, V: Dfa, maxlen: int = 6) -> Optional[tuple]:
    """Bounded search for a closure violation.

    Looks for w in the iterated shuffle of P intersected with V such that
    deleting one whole component of w leaves a word outside V.  Returns the
    shortest (w, u, e, positions) with ties broken by the alphabet
    declaration order of P, or None when the bounded search is clean: the
    result of the brute-force word-by-word reference, sp_falsify in
    tests/oracle_reference.py.  Raises BudgetExceeded for a bound over
    MAX_FALSIFIER_LEN; no word count caps it.

    When V is closed under taking scattered subwords (`subword_closed`),
    the answer is None without a search, once the arguments are checked:
    deleting a component of w leaves a subword of w, so it never leaves V.

    A configuration splits a prefix x of w into a remainder u and a
    component e: (V-state of u, or None once u has left V; counter vector
    of u; P-state of e; whether e is nonempty).  w violates when it is in V
    and reaches a configuration with u outside V, u's vector zero and e
    nonempty and accepted; w then interleaves u, a member of the iterated
    shuffle, with a component word.  u's vector is packed, and steps on
    the table that word membership walks (`ShuffleEngine.word_steps_on`).

    A breadth-first search runs over the prefixes x in key order (length,
    then P's alphabet order) and steps each x on every letter in that
    order.  Each pair (V-state of x, configuration) is kept only at the
    first prefix that reaches it, so it is expanded at most once.  This
    still finds the key-least violating word w.  A configuration's future
    depends only on itself and on the room left before the bound, and the
    prefix that first reaches it is key-least, so no longer, and has at
    least as much room.  If some configuration on w's path were first
    reached by a prefix y less than w's own prefix x, then y followed by
    the rest of w would violate and come before w.  So every configuration
    on w's path is kept at w's own prefix, and the first new accepting
    configuration the search meets is w's.  The search must step prefix
    by prefix: stepping configuration by configuration would reach a pair
    first from a prefix that is not the least one.
    """
    if maxlen > MAX_FALSIFIER_LEN:
        raise BudgetExceeded(f"falsifier length bound {maxlen} too large")
    if maxlen < 0:
        raise ValueError(f"negative falsifier length bound {maxlen}")
    for a in P.alphabet:
        if a not in V.alphabet:
            raise UnknownLetter(f"letter {a} not in the constraint alphabet")
    if subword_closed(V):
        return None
    eng = engine_for(P)
    p_delta = P.delta
    v_delta = V.delta
    p_finals = P.finals
    v_finals = V.finals
    start = (V.initial, 0, P.initial, False)
    seen = {V.initial: {start}}  # V-state of x -> configurations reached
    level = [((), V.initial, (start,))]
    for n in range(1, maxlen + 1):
        room = maxlen - n  # an open component needs one more letter to close
        grown = []
        for x, qw, configs in level:
            for a in P.alphabet:
                qw2 = v_delta.get((qw, a))
                if qw2 is None:
                    continue
                steps = eng.word_steps_on(a)
                old = seen.setdefault(qw2, set())
                new = []
                for qu, f, pe, nonempty in configs:
                    pe2 = p_delta.get((pe, a))
                    if pe2 is not None:
                        c = (qu, f, pe2, True)
                        if c not in old:
                            old.add(c)
                            new.append(c)
                    qu2 = None if qu is None else v_delta.get((qu, a))
                    for guard, effect in steps:
                        if not guard or f & guard:
                            g = f + effect
                            if g % NORM_MOD <= room:
                                c = (qu2, g, pe, nonempty)
                                if c not in old:
                                    old.add(c)
                                    new.append(c)
                if not new:
                    continue
                w = x + (a,)
                if qw2 in v_finals and any(
                    nonempty and pe in p_finals and not f and qu not in v_finals
                    for qu, f, pe, nonempty in new
                ):
                    return (w,) + _least_removal(eng, V, w)
                grown.append((w, qw2, new))
        level = grown
    return None


def _least_removal(eng: ShuffleEngine, V: Dfa, w: Word) -> tuple:
    """The least (u, e, positions) splitting w into u, a member of the
    iterated shuffle of eng.P outside V, and a nonempty component word e
    at positions, ordered by u, then e (length, then P's alphabet order),
    then positions.  The search runs over the position subsets of w,
    stepping u's packed vectors as `sp_falsify` does."""
    P = eng.P
    rank = {a: i for i, a in enumerate(P.alphabet)}

    def key(v: Word) -> tuple:
        return (len(v), tuple(rank[a] for a in v))

    p_finals = P.finals
    v_finals = V.finals
    found = []

    def split(i: int, upos: tuple, epos: tuple, pe, vectors: frozenset):
        if i == len(w):
            if epos and pe in p_finals and 0 in vectors:
                u = tuple(w[j] for j in upos)
                if V.run(u) not in v_finals:
                    e = tuple(w[j] for j in epos)
                    found.append(((key(u), key(e), epos), (u, e, epos)))
            return
        a = w[i]
        pe2 = P.delta.get((pe, a))
        if pe2 is not None:
            split(i + 1, upos, epos + (i,), pe2, vectors)
        room = len(w) - i - 1
        steps = eng.word_steps_on(a)
        moved = frozenset(
            f + effect
            for f in vectors
            for guard, effect in steps
            if (not guard or f & guard) and (f + effect) % NORM_MOD <= room
        )
        if moved:
            split(i + 1, upos + (i,), epos, pe, moved)

    split(0, (), (), P.initial, frozenset({0}))
    return min(found)[1]


ELEM_INITIAL = "open"
ELEM_CLOSED = "closed"


def elementary_automaton(P: Dfa) -> Dfa:
    """Semiautomaton tracking one single component from 0 back to 0.

    Letters are the core transitions; state names are the vector strings,
    with a separate closed state so a finished component cannot restart.
    """
    states = {ELEM_INITIAL, ELEM_CLOSED}
    delta = {}
    alphabet = []

    for t in engine_for(P).ordered_core:
        a = Letter(t)
        alphabet.append(a)
        src = ELEM_INITIAL if t.source.is_zero() else str(t.source)
        if t.kind in (END, START_END):
            tgt = ELEM_CLOSED
        else:
            tgt = str(t.target)
        states.add(src)
        states.add(tgt)
        delta[(src, a)] = tgt
    return Dfa(
        alphabet=tuple(alphabet),
        states=frozenset(states),
        delta=delta,
        initial=ELEM_INITIAL,
        finals=frozenset(),
        kind="semiautomaton",
    )


def elementary_vector_states(P: Dfa) -> frozenset:
    """All counter vectors a single tracked component passes through: 0 and
    the unit vector of each component state."""
    units = (CounterVector.unit(q) for q in engine_for(P).component_states)
    return frozenset((ZERO, *units))
