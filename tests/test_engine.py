import copy
import gc
import pickle
import random
import sys
import threading
import weakref
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from shufflecheck.automata import (
    EmptyLanguage,
    Letter,
    ParseError,
    ShufflecheckError,
    UnknownLetter,
    grave,
    normalize,
    parse_automaton,
    parse_letter,
    word,
)
from shufflecheck import engine
from shufflecheck.decision import parse_verdict
from shufflecheck.engine import (
    WORD_FIELD,
    Computation,
    CounterVector,
    Layout,
    NotAComputation,
    ShuffleEngine,
    ShuffleTransition,
    ZERO,
    elementary_automaton,
    elementary_vector_states,
    engine_for,
    parse_transition,
    parse_transitions,
    parse_vector,
    pre_shuffle_member,
    reached,
    shuffle_member,
    sigma_core,
    walk_table,
)
from shufflecheck.oracle import iterated_shuffle_upto
from conftest import mk_dfa, random_dfa, wide_draw


def tset(*texts):
    return frozenset(parse_transition(t) for t in texts)


# --- vectors -----------------------------------------------------------

@given(
    st.dictionaries(st.sampled_from("pqr"), st.integers(0, 4), max_size=3),
    st.dictionaries(st.sampled_from("pqr"), st.integers(0, 4), max_size=3),
)
def test_vector_add_sub_inverse(m1, m2):
    f, g = CounterVector.make(m1), CounterVector.make(m2)
    assert f.add(g).sub(g) == f
    assert f.add(g).norm == f.norm + g.norm
    assert f.add(g).geq(f)


def test_vector_sub_clips_to_none():
    f = CounterVector.make({"q": 1})
    assert f.sub(CounterVector.make({"q": 2})) is None
    assert f.sub(f) == ZERO


counts = st.dictionaries(st.sampled_from("pqrs"), st.integers(0, 4), max_size=4)


def _well_formed(f):
    assert list(f.entries) == sorted(f.entries)
    assert all(n > 0 for _, n in f.entries)


@given(counts, counts)
def test_vector_arithmetic_matches_dicts(m1, m2):
    f, g = CounterVector.make(m1), CounterVector.make(m2)
    assert dict(f.entries) == {q: n for q, n in m1.items() if n}
    assert CounterVector.make(dict(m1)) is f
    keys = set(m1) | set(m2)
    total = f.add(g)
    _well_formed(total)
    assert dict(total.entries) == {
        q: m1.get(q, 0) + m2.get(q, 0) for q in keys if m1.get(q, 0) + m2.get(q, 0)
    }
    assert total is g.add(f)
    diff = {q: m1.get(q, 0) - m2.get(q, 0) for q in keys}
    rest = f.sub(g)
    if any(n < 0 for n in diff.values()):
        assert rest is None
        assert not f.geq(g)
    else:
        _well_formed(rest)
        assert dict(rest.entries) == {q: n for q, n in diff.items() if n}
        assert rest is CounterVector.make(diff)
        assert f.geq(g)
    with pytest.raises(ValueError):
        CounterVector.make({**m1, "t": -1})


def test_interned_values_survive_copy_and_pickle(single_ab):
    f = CounterVector.make({"q": 2})
    t = ShuffleTransition(f, Letter("a"), f.add(CounterVector.unit("p")), "start")
    step_letter = elementary_automaton(single_ab).alphabet[0]
    assert isinstance(step_letter.symbol, ShuffleTransition)
    letters = (Letter("a"), Letter("b", 2), Letter("a").checked(), step_letter)
    for x in (ZERO, f, t, t.checked()) + letters:
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(x, protocol)) is x
    assert CounterVector() is ZERO
    assert ZERO.entries == ()
    assert f.entries == (("q", 2),)


def test_check_zero_is_one_value_through_copy_and_pickle():
    # the closed state is compared by identity wherever the deletion
    # system runs, so every copy of it must be the engine's one value
    from shufflecheck import representation

    assert representation.CHECK_ZERO is engine.CHECK_ZERO
    x = engine.CHECK_ZERO
    assert copy.copy(x) is x and copy.deepcopy(x) is x
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(x, protocol)) is x
    assert str(x) == repr(x) == "0#"


def test_equal_steps_are_one_object():
    t = parse_transition("(II:1) c (0) [end]")
    assert parse_transition("(II:1) c (0) [end]") is t
    assert t.source is CounterVector.unit("II")
    assert t.target is ZERO
    assert t.shift(ZERO) is t
    assert t.checked().unchecked() is t


def test_interning_keeps_no_value_alive():
    # the tables are weak: a long-lived process must not keep every vector
    # and step it ever built
    f = CounterVector.make({"transient": 3})
    t = ShuffleTransition(f, Letter("a"), f.add(f), "start")
    refs = [weakref.ref(f), weakref.ref(t)]
    del f, t
    gc.collect()
    assert all(r() is None for r in refs)


def test_threads_share_one_object_per_value():
    # threads racing to make the same new vectors, steps and letters must
    # all get one object per value; a lost race would hand out two
    a = Letter("a")
    results = []

    def make_many():
        out = []
        for n in range(1, 300):
            f = CounterVector.make({"race": n, "other": n % 7})
            t = ShuffleTransition(f, a, f.add(CounterVector.unit("race")), "start")
            out.append((f, t, Letter(f"r{n}")))
        results.append(out)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=make_many) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6
    for out in results[1:]:
        assert all(
            x is y and s is u and b is c
            for (x, s, b), (y, u, c) in zip(out, results[0])
        )


def test_step_kind_is_checked():
    ShuffleTransition(ZERO, Letter("a"), ZERO, "start_end")
    with pytest.raises(ValueError):
        ShuffleTransition(ZERO, Letter("a"), ZERO, "sideways")


def test_parse_vector_roundtrip():
    for text in ["(0)", "(II:1)", "(II:2 III:1)"]:
        assert str(parse_vector(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "I)qre_1bns)(tx(",
        "(a#2'4():ed)",
        "x (0) a (1:1)",
        "(0) a (1:1) junk",
        "(0) a b (1:1)",
        "(0) a (1:1) [bogus]",
        "(0) a (1:1) []",
        "(0) a (1:\u00b2)",
    ],
)
def test_parse_transition_rejects_anything_but_one_step(text):
    with pytest.raises(ParseError):
        parse_transition(text)


def test_parse_transition_reads_spacing_and_an_optional_kind():
    t = parse_transition("(II:1) c (0) [end]")
    assert parse_transition(" ( II:1 )c(0)[ end ] ") is t
    assert parse_transition("(II:1) c (0)") is t
    assert parse_transition("(0) a (0) [inner]").kind == "inner"


# Pieces of every text format, so that random texts come near valid ones.
TEXT_PIECES = [
    "(", ")", "[", "]", ":", "@", "^", "#", " ", "\n", "0", "1", "12", "\u00b2",
    "a", "b", "q", "II", "start", "end", "inner", "start_end", "kind: ", "dfa",
    "semiautomaton", "alphabet: ", "states: ", "initial: ", "finals: ", "trans: ",
    "VERDICT: ", "holds", "fails", "MODE: ", "general", "prefix", "ROUTE: ",
    "CERTIFICATE:", "BUDGETS:", "STATS:", "word: ", "positions: ", "delta: ",
    "km_node_cap: ",
]
pieces = st.lists(st.sampled_from(TEXT_PIECES), max_size=24).map("".join)
few_pieces = st.lists(st.sampled_from(TEXT_PIECES), max_size=3).map("".join)
texts = st.one_of(
    st.text(max_size=30),
    pieces,
    # '(f) a (g) [kind]' with random parts
    st.tuples(few_pieces, few_pieces, few_pieces, few_pieces).map(
        lambda parts: "({}) {} ({}) [{}]".format(*parts)
    ),
)


@seed(30)
@settings(max_examples=1000, deadline=None)
@given(texts)
def test_text_readers_raise_only_package_errors(text):
    # whatever the text, a reader returns or raises a ShufflecheckError,
    # which the CLI reports as one error line
    for read in (parse_letter, parse_vector, parse_transition, parse_automaton, parse_verdict):
        try:
            read(text)
        except ShufflecheckError:
            pass


def test_numbers_int_refuses_are_parse_errors():
    # isdecimal takes any number of digits; int refuses more than 4,300
    digits = "1" * 5000
    with pytest.raises(ParseError):
        parse_vector(f"(a:{digits})")
    with pytest.raises(ParseError):
        parse_letter(f"a@{digits}")


def test_parse_transitions_reads_each_distinct_text_once(monkeypatch):
    # replay reads a certificate's delta in one call: the steps that
    # parse_transition reads line by line, with the vector texts 0, II:1
    # and II:2 and the letter texts a and b each read once
    lines = [
        "(0) a (II:1) [start]",
        "(II:1) a (II:2) [start]",
        "(II:2) b (II:1) [end]",
        "(II:1) b (0)",
    ]
    expected = frozenset(map(parse_transition, lines))
    reads = Counter()
    for name in ("parse_vector", "parse_letter"):
        real = getattr(engine, name)

        def counted(text, real=real, name=name):
            reads[name, text] += 1
            return real(text)

        monkeypatch.setattr(engine, name, counted)
    assert parse_transitions(lines) == expected
    assert len(reads) == 5 and set(reads.values()) == {1}
    # an unreadable line raises as it does alone
    for bad in ("(0) a (1:\u00b2)", "(0) a (II:1) [bogus]"):
        with pytest.raises(ParseError):
            parse_transitions(lines + [bad])


# --- core and shift law ------------------------------------------------

def test_core_two_start(two_start):
    assert sigma_core(two_start) == tset(
        "(0) a (II:1) [start]",
        "(0) b (II:1) [start]",
        "(II:1) c (0) [end]",
    )


def test_core_ring3(ring3):
    core = sigma_core(ring3)
    # every state accepting: each inner step has an end twin
    kinds = {}
    for t in core:
        kinds.setdefault(str(t.letter), set()).add(t.kind)
    assert kinds["b"] == {"inner", "end"}
    assert kinds["c"] == {"inner", "end"}
    assert kinds["a"] >= {"start", "start_end"}


def test_core_sources_are_occupiable(single_abc):
    eng = engine_for(single_abc)
    for t in eng.core:
        assert {q for q, _ in t.source.entries} <= set(eng.component_states)


def test_shift_law_reconstructs_successors(rng):
    # every transition from an occupiable vector is a shifted core entry,
    # and every non-negative shift of a core entry is a transition
    for _ in range(25):
        P = random_dfa(rng, max_states=4)
        eng = engine_for(P)
        comp = sorted(eng.component_states)
        for _ in range(8):
            counts = {q: rng.randint(0, 2) for q in comp}
            f = CounterVector.make(counts)
            for a in P.alphabet:
                got = eng.successors(f, a)
                expected = set()
                for t in eng.core:
                    if t.letter != a:
                        continue
                    h = f.sub(t.source)
                    if h is not None:
                        expected.add(t.shift(h))
                assert got == expected


def _reference_successors(P, f, a):
    # the definition of a step, case by case on the P-edge it follows: a
    # component opens or moves into a non-dead state, or closes in a final one
    non_dead = frozenset(q for (q, _a), _p in P.delta.items())
    finals = P.finals
    out = set()
    p0 = P.delta.get((P.initial, a))
    if p0 is not None:
        if p0 in non_dead:
            out.add(ShuffleTransition(f, a, f.add(CounterVector.unit(p0)), "start"))
        if p0 in finals:
            out.add(ShuffleTransition(f, a, f, "start_end"))
    for q, _n in f.entries:
        p = P.delta.get((q, a))
        if p is None:
            continue
        base = f.sub(CounterVector.unit(q))
        if p in non_dead:
            out.add(ShuffleTransition(f, a, base.add(CounterVector.unit(p)), "inner"))
        if p in finals:
            out.add(ShuffleTransition(f, a, base, "end"))
    return frozenset(out)


def test_successors_and_core_match_the_step_definition():
    # every vector of norm at most 3 over all of P's states, occupiable
    # or not, on the first 100 criterion-10 draws and their prefix closures
    rng = random.Random(101010)
    for _ in range(100):
        drawn = random_dfa(rng, max_states=3, alpha="ab")
        random_dfa(rng, max_states=3, alpha="ab")  # the draw's V
        for P in (drawn, grave(drawn)):
            eng = engine_for(P)
            states = sorted(P.states)
            core = set()
            for a in P.alphabet:
                core |= _reference_successors(P, ZERO, a)
                for q in eng.component_states:
                    core |= {
                        t
                        for t in _reference_successors(P, CounterVector.unit(q), a)
                        if t.kind in ("inner", "end")
                    }
            assert eng.core == core
            for n in range(4):
                for combo in combinations_with_replacement(states, n):
                    f = CounterVector.make(Counter(combo))
                    for a in P.alphabet:
                        assert eng.successors(f, a) == _reference_successors(P, f, a)


def test_computation_validates_chaining():
    steps = tset("(0) a (II:1) [start]") | tset("(II:1) b (0) [end]")
    start = next(t for t in steps if t.kind == "start")
    end = next(t for t in steps if t.kind == "end")
    c = Computation([start, end])
    assert c.final == ZERO
    assert [str(a) for a in c.label()] == ["a", "b"]
    with pytest.raises(NotAComputation):
        Computation([end])


# --- membership against the oracle -------------------------------------

def test_membership_small_golden(single_ab):
    assert shuffle_member(single_ab, word("ab"))
    assert shuffle_member(single_ab, word("aabb"))
    assert shuffle_member(single_ab, word("abab"))
    assert not shuffle_member(single_ab, word("ba"))
    assert not shuffle_member(single_ab, word("a"))
    assert pre_shuffle_member(single_ab, word("a"))
    assert pre_shuffle_member(single_ab, word("aab"))
    assert not pre_shuffle_member(single_ab, word("b"))


def test_membership_matches_oracle(rng):
    from itertools import product as iproduct

    from shufflecheck.automata import Letter, normalize, EmptyLanguage

    done = 0
    while done < 20:
        P = random_dfa(rng, max_states=4)
        try:
            P = normalize(P)
        except EmptyLanguage:
            continue
        members = set(iterated_shuffle_upto(P, 6))
        pre_members = set(iterated_shuffle_upto(grave(P), 6))
        for n in range(0, 7):
            for chars in iproduct("ab", repeat=n):
                w = tuple(Letter(c) for c in chars)
                assert shuffle_member(P, w) == (w in members)
                assert pre_shuffle_member(P, w) == (w in pre_members)
        done += 1


def _vector_frontier(P, w) -> frozenset:
    """The vectors reached from 0 along paths labeled w, walked on
    `CounterVector`s: the reference for the packed walk of
    `shuffle_member` and `pre_shuffle_member`."""
    eng = engine_for(P)
    frontier = {ZERO}
    for a in w:
        frontier = {t.target for f in frontier for t in eng.successors(f, a)}
        if not frontier:
            break
    return frozenset(frontier)


def _word_dfa(text):
    # the component language {text}
    n = len(text)
    return mk_dfa(
        "ab", [(str(i), x, str(i + 1)) for i, x in enumerate(text)], "0", [str(n)]
    )


def _agrees_with_the_vector_walk(P, w):
    frontier = _vector_frontier(P, w)
    assert len(engine_for(P).member_frontier(w)) == len(frontier), (P, w)
    assert shuffle_member(P, w) == (ZERO in frontier), (P, w)
    assert pre_shuffle_member(P, w) == bool(frontier), (P, w)


@pytest.mark.parametrize("draw_seed", [7, 11, 13])
def test_packed_membership_matches_the_vector_walk_on_wide_draws(draw_seed):
    # every word up to length 6, for P and its prefix recognizer
    rng = random.Random(draw_seed)
    words = [
        tuple(map(Letter, chars))
        for n in range(7)
        for chars in product("abc", repeat=n)
    ]
    done = 0
    while done < 10:
        P, _V = wide_draw(rng)
        try:
            P = normalize(P)
        except EmptyLanguage:
            continue
        for comp in (P, grave(P)):
            for w in words:
                _agrees_with_the_vector_walk(comp, w)
        done += 1


def test_packed_membership_matches_the_vector_walk_on_modular_witnesses():
    # a net-reachability witness against "#a = 0 mod k" is k copies of
    # P's word, and its remainder k - 1 copies; sorted, the same words
    # hold every component open at once
    for text in ("ab", "aab", "abb"):
        P = _word_dfa(text)
        for k in range(4, 15):
            for copies in (k, k - 1):
                w = word(text * copies)
                for v in (w, tuple(sorted(w, key=str))):
                    _agrees_with_the_vector_walk(P, v)
                    assert shuffle_member(P, v)
                _agrees_with_the_vector_walk(P, w[:-1])
                assert not shuffle_member(P, w[:-1])


def test_packed_membership_past_the_16_bit_field(single_abc):
    # n = 70,000 components sit at II at once, more than a 16-bit field
    # holds; II's field lies just below III's
    n = 70_000
    a, b, c = word("abc")
    w = (a,) * n + (b,) * n + (c,) * n
    assert shuffle_member(single_abc, w)
    assert not shuffle_member(single_abc, w[:-1])
    assert pre_shuffle_member(single_abc, w[:-1])
    assert not pre_shuffle_member(single_abc, w[: 2 * n] + (b,))
    assert len(engine_for(single_abc).member_frontier(w[: 2 * n])) == 1


def test_packed_membership_on_a_letter_p_does_not_read(single_ab):
    # a letter outside P's alphabet raises while some vector is left, and
    # a word whose walk has died before it is no member
    z = Letter("z")
    for w in ((z,), word("a") + (z,), word("ab") + (z,)):
        with pytest.raises(UnknownLetter):
            shuffle_member(single_ab, w)
        with pytest.raises(UnknownLetter):
            pre_shuffle_member(single_ab, w)
    for w in (word("b") + (z,), word("abb") + (z,)):
        assert not shuffle_member(single_ab, w)
        assert not pre_shuffle_member(single_ab, w)


def test_word_walks_read_the_walk_table(monkeypatch, single_ab):
    # membership and the falsifier step on `walk_table`'s packing of the
    # core at WORD_FIELD bits, which an engine keeps for its word walks,
    # and a word of 2**WORD_FIELD letters or more on fields wide enough
    # for its counts: a**n b**n opens n components of {ab} at once, and
    # n = 2**WORD_FIELD does not fit WORD_FIELD bits
    read = []
    real = engine.walk_table

    def spy(P, width):
        read.append(width)
        return real(P, width)

    monkeypatch.setattr(engine, "walk_table", spy)
    engine._engine.cache_clear()  # the falsifier's engine builds its table
    a, b = word("ab")
    eng = ShuffleEngine(single_ab)
    assert 0 in eng.member_frontier((a, a, b, b))
    assert not eng.member_frontier((b,))
    assert eng.word_table is real(single_ab, WORD_FIELD)[1]
    aabb = mk_dfa(
        "ab", [("0", "a", "1"), ("1", "a", "2"), ("2", "b", "3"), ("3", "b", "4")],
        "0", ["4"],
    )
    assert engine.sp_falsify(single_ab, aabb, 4)[0] == (a, a, b, b)
    assert read == [WORD_FIELD] * 2
    n = 1 << WORD_FIELD
    assert 0 in eng.member_frontier((a,) * n + (b,) * n)
    assert read[2:] == [(2 * n).bit_length()]


def test_layout_packs_below_the_spare_bit_and_covers_field_by_field():
    # a count reaching a field's top bit does not pack; below it a packed
    # vector unpacks as itself, and the word-parallel test reads g >= f
    # exactly when every count of g is at least f's
    rng = random.Random(5)
    for width in (1, 2, 3, 8):
        layout = Layout(("p", "q", "r"), width)
        top = 1 << (width - 1)
        assert layout.pack((("q", top),)) is None
        assert layout.pack((("s", 1),)) is None
        for _ in range(300):
            f, g = (
                tuple((q, n) for q in "pqr" if (n := rng.randrange(top)))
                for _ in range(2)
            )
            pf, pg = layout.pack(f), layout.pack(g)
            assert (layout.entries(pf), layout.entries(pg)) == (f, g)
            covers = ((pg | layout.high) - pf) & layout.high == layout.high
            assert covers == all(dict(g).get(q, 0) >= n for q, n in f)


def test_walk_table_packs_each_core_step_both_ways():
    # the walks' table holds each core step once, packed as its guard and
    # effect, with its kind and the guard of its backward run, the field
    # of the state it leads into; on random components and their prefix
    # recognizers, at several widths
    rng = random.Random(23)
    for _ in range(200):
        P = random_dfa(rng, 3, "ab")
        for comp in (P, grave(P)):
            eng = engine_for(comp)
            for width in (2, 5, 19):
                layout, steps = walk_table(comp, width)
                field = layout.field
                for a in comp.alphabet:
                    expected = sorted(
                        (
                            field << layout.shift[t.source.entries[0][0]] if t.source.entries else 0,
                            layout.pack(t.target.entries) - layout.pack(t.source.entries),
                            t.kind,
                            field << layout.shift[t.target.entries[0][0]] if t.target.entries else 0,
                        )
                        for t in eng.core
                        if t.letter == a
                    )
                    assert steps[a] == expected


def test_packed_membership_of_the_empty_word(single_ab, single_letter):
    for P in (single_ab, single_letter, grave(single_ab)):
        assert shuffle_member(P, ())
        assert pre_shuffle_member(P, ())
        assert engine_for(P).member_frontier(()) == {0}


# --- single-component tracker ------------------------------------------

def test_elementary_automaton_shape(single_ab):
    e = elementary_automaton(single_ab)
    assert e.initial == "open"
    assert "closed" in e.states
    assert elementary_vector_states(single_ab) == frozenset(
        [ZERO, CounterVector.unit("II")]
    )


def test_core_is_the_single_component_step_basis():
    # on raw automata, unreachable and dead states kept: a single tracked
    # component reaches every core step's source from 0, so the core is
    # its whole step set, and it passes through 0 and the unit vector of
    # each component state
    rng = random.Random(2525)
    for _ in range(500):
        P = random_dfa(rng, max_states=5, alpha="abc")
        eng = engine_for(P)
        units = {CounterVector.unit(q) for q in eng.component_states}
        assert reached(eng.core) == {ZERO} | units
        assert elementary_vector_states(P) == {ZERO} | units
        assert eng.ordered_core == tuple(
            sorted(eng.core, key=lambda t: (str(t), t.kind))
        )


def validate_in_shuffle(P, t: ShuffleTransition) -> bool:
    """Exact membership of a tagged transition in the full transition set."""
    return t in engine_for(P).successors(t.source, t.letter)


def test_validate_in_shuffle(two_start):
    good = parse_transition("(II:1) c (0) [end]")
    assert validate_in_shuffle(two_start, good)
    bad = parse_transition("(II:1) c (II:1) [start_end]")
    assert not validate_in_shuffle(two_start, bad)
