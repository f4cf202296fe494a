import copy
import gc
import pickle
import random
import weakref
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecheck.automata import (
    AutomatonError,
    Dfa,
    EmptyLanguage,
    Letter,
    accepts,
    complete,
    equivalent,
    grave,
    includes,
    is_prefix_closed,
    language_upto,
    normalize,
    parse_automaton,
    parse_letter,
    serialize_automaton,
    subword_closed,
    word,
)
from conftest import depth_chain, even_length, mk_dfa, random_dfa, sigma_star


def test_parse_serialize_roundtrip(single_ab):
    text = serialize_automaton(single_ab)
    again = parse_automaton(text)
    assert equivalent(single_ab, again)
    assert again.kind == "dfa"


def test_parse_comments_and_semiautomaton():
    text = """
# constraint
kind: semiautomaton
alphabet: a b
states: 1 2
initial: 1
trans: 1 a 2  # open
trans: 2 b 1
"""
    a = parse_automaton(text)
    assert a.is_semiautomaton
    assert a.finals == a.states


def test_parse_letter_forms():
    assert parse_letter("a") == Letter("a")
    assert parse_letter("a@2") == Letter("a", 2)
    assert parse_letter("^c") == Letter("c", None, "checked")
    assert str(parse_letter("^b@3")) == "^b@3"
    assert parse_letter("^b@2") is Letter("b", 2, "checked")
    assert Letter("a").checked().unchecked() is Letter("a")


def test_normalize_trims_dead_states():
    a = mk_dfa("ab", [("1", "a", "2"), ("1", "b", "3")], "1", ["2"])
    n = normalize(a)
    assert "3" not in n.states
    assert accepts(n, word("a"))


def test_normalize_empty_language_raises():
    a = mk_dfa("ab", [], "1", ["2"])
    with pytest.raises(EmptyLanguage):
        normalize(a)


def test_normalize_still_trims_a_hand_built_dfa():
    # 3 is unreachable and 4 is dead; the memo must not take a Dfa that
    # normalize did not make for a normal one
    a = mk_dfa(
        "ab", [("1", "a", "2"), ("3", "a", "2"), ("1", "b", "4")], "1", ["2"]
    )
    n = normalize(a)
    assert n.states == {"1", "2"}
    assert n.delta == {("1", Letter("a")): "2"}
    assert normalize(a) is n
    empty = mk_dfa("ab", [("1", "a", "2")], "1", [])
    for _ in range(2):
        with pytest.raises(EmptyLanguage):
            normalize(empty)


def test_forms_are_idempotent_by_identity(single_ab, alt):
    a_star = mk_dfa("ab", [("1", "a", "1")], "1", [], "semiautomaton")
    for a in (single_ab, alt, a_star):
        for form in (normalize, complete, grave):
            once = form(a)
            assert form(a) is once
            assert form(once) is once
    # a Dfa already in a form is its own form
    n = normalize(single_ab)
    assert normalize(n) is n and grave(grave(n)) is grave(n)
    assert complete(complete(a_star)) is complete(a_star)


def test_a_dfa_and_its_forms_are_freed_without_the_collector():
    # a form that is the Dfa itself is a flag, not a reference cycle
    gc.disable()
    try:
        a = mk_dfa("ab", [("1", "a", "2"), ("1", "b", "3")], "1", ["2"])
        forms = [a, normalize(a), complete(a), grave(a), grave(normalize(a))]
        for b in forms[1:]:
            normalize(b), complete(b), grave(b)
        refs = [weakref.ref(b) for b in forms]
        del a, b, forms
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_memo_crosses_no_pickle_or_copy(single_ab):
    # string hashes depend on the process's hash seed, so a copy or a
    # pickle must rebuild the Dfa from its fields and compute afresh
    a = mk_dfa("ab", [("1", "a", "2"), ("1", "b", "3")], "1", ["2"])
    for b in (a, single_ab, grave(single_ab)):
        h = hash(b)
        normalize(b), complete(b), grave(b)
        assert len(vars(b)) > len(fields(Dfa))
        copies = [copy.copy(b), copy.deepcopy(b)] + [
            pickle.loads(pickle.dumps(b, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for c in copies:
            assert c is not b and c == b
            assert set(vars(c)) == {f.name for f in fields(Dfa)}
            assert hash(c) == h


def test_includes_shortest_witness_by_declaration_order(ring3, ring9):
    assert includes(ring9, ring3) is True
    w = includes(ring3, ring9)
    assert w is not True
    # shortest word in the big ring missing from the small one
    assert w == word("aba")


def test_prefix_closed(alt, single_ab):
    assert is_prefix_closed(alt)
    assert not is_prefix_closed(single_ab)
    assert is_prefix_closed(grave(single_ab))


def test_complete_adds_sink(alt):
    c = complete(alt)
    assert all((q, a) in c.delta for q in c.states for a in c.alphabet)
    assert equivalent(normalize(c), alt)


def test_semiautomaton_sink_rejects():
    a_star = mk_dfa("ab", [("1", "a", "1")], "1", [], "semiautomaton")
    all_words = mk_dfa("ab", [("1", "a", "1"), ("1", "b", "1")], "1", ["1"])
    assert not equivalent(a_star, all_words)
    eps_or_b = mk_dfa("ab", [("1", "b", "2")], "1", ["1", "2"])
    assert includes(a_star, eps_or_b) == word("b")
    c = complete(a_star)
    assert c.kind == "dfa"
    assert c.finals == {"1"} and len(c.states) == 2
    assert equivalent(c, a_star)


def test_semiautomaton_finals_are_its_states():
    with pytest.raises(AutomatonError):
        mk_dfa("ab", [("1", "a", "2")], "1", ["2"], "semiautomaton")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("ab"), max_size=6))
def test_accepts_matches_enumeration(chars):
    a = mk_dfa("ab", [("1", "a", "2"), ("2", "b", "1")], "1", ["1", "2"])
    w = word("".join(chars))
    assert accepts(a, w) == (w in set(language_upto(a, 6)))


def test_language_upto_order(ring3):
    ws = language_upto(ring3, 3)
    lengths = [len(w) for w in ws]
    assert lengths == sorted(lengths)
    assert ws[0] == ()


def subword_closed_upto(a, bound):
    """Brute force: is every scattered subword of every word of length at
    most bound that a accepts accepted too?  The scattered subwords of w
    are w itself and those of its one-letter deletions."""
    closed = {}

    def down(w):
        if w not in closed:
            closed[w] = accepts(a, w) and all(
                down(w[:i] + w[i + 1:]) for i in range(len(w))
            )
        return closed[w]

    return all(down(w) for w in language_upto(a, bound))


@pytest.mark.parametrize("alpha", ["ab", "abc"])
def test_subword_closed_matches_brute_force(alpha):
    # raw automata, unreachable and dead states kept, dfa and semiautomaton;
    # a shortest witness is at most n(n + 1) letters long for n states, so
    # the brute force is exact at that bound, used wherever it is cheap
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(300):
        a = random_dfa(rng, max_states=3, alpha=alpha)
        if rng.random() < 0.3:
            a = Dfa(a.alphabet, a.states, a.delta, a.initial, frozenset(),
                    "semiautomaton")
        n = len(a.states)
        exact = n * (n + 1)
        bound = exact if len(alpha) ** exact <= 4096 else 7
        closed = subword_closed(a)
        brute = subword_closed_upto(a, bound)
        if bound == exact:
            assert closed == brute, a
        else:
            assert brute or not closed, a
        seen[closed, a.kind, bound == exact] += 1
    for kind in ("dfa", "semiautomaton"):
        assert seen[True, kind, True] >= 5 and seen[False, kind, True] >= 5, seen


def test_subword_closed_named_cases(ring3, ring9, a_star_b_star):
    for a in (sigma_star("ab"), a_star_b_star):
        assert subword_closed(a)
        assert subword_closed(complete(a))
    for a in (ring3, ring9, depth_chain(4), even_length("ab")):
        assert not subword_closed(a)
        assert not subword_closed_upto(a, 3)
