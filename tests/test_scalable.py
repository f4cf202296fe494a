import pytest

from shufflecheck.automata import Dfa, Letter, equivalent, language_upto, word
from shufflecheck.scalable import (
    NotASubset,
    NotPrefixClosed,
    build_family_member,
    check_self_similarity,
    pi,
)
from conftest import mk_dfa


def idx_word(text):
    """'a1 b1 a2' -> indexed word."""
    return tuple(
        Letter(tok[0], int(tok[1:])) for tok in text.split()
    )


def tau(i, w):
    """Stamp every letter with the copy index i."""
    return tuple(Letter(a.symbol, i, a.mark) for a in w)


def theta(w):
    """Erase copy indices."""
    return tuple(Letter(a.symbol, None, a.mark) for a in w)


def test_tau_theta_inverse():
    w = word("abab")
    assert theta(tau(3, w)) == w
    assert all(a.index == 3 for a in tau(3, w))


def test_pi_keeps_selected_indices():
    w = idx_word("a1 b1 a2 a3")
    assert pi({2, 3}, w) == idx_word("a2 a3")
    assert pi({1}, w) == idx_word("a1 b1")
    assert pi(set(), w) == ()


def test_family_requires_subset(alt, single_ab):
    with pytest.raises(NotASubset):
        build_family_member(alt, mk_dfa("ab", [("1", "a", "2")], "1", ["1", "2"]), {1})


def test_family_base_inside_a_semiautomaton_constraint():
    a_star = mk_dfa("ab", [("1", "a", "1")], "1", [], "semiautomaton")
    eps_or_b = mk_dfa("ab", [("1", "b", "2")], "1", ["1", "2"])
    with pytest.raises(NotASubset) as caught:
        build_family_member(eps_or_b, a_star, {1})
    assert str(caught.value).endswith(f"witness {word('b')}")


def test_family_requires_prefix_closed(single_ab, alt):
    with pytest.raises(NotPrefixClosed):
        build_family_member(single_ab, alt, {1})


def test_family_member_two_copies(alt):
    m = build_family_member(alt, alt, {1, 2})
    assert len(m.states) == 3
    expected = Dfa(
        alphabet=(
            Letter("a", 1), Letter("b", 1), Letter("a", 2), Letter("b", 2),
        ),
        states=frozenset(["s", "p", "q"]),
        delta={
            ("s", Letter("a", 1)): "p",
            ("p", Letter("b", 1)): "s",
            ("s", Letter("a", 2)): "q",
            ("q", Letter("b", 2)): "s",
        },
        initial="s",
        finals=frozenset(["s", "p", "q"]),
        kind="dfa",
    )
    assert equivalent(m, expected)


def test_family_words_project_into_base(alt):
    from shufflecheck.automata import accepts

    m = build_family_member(alt, alt, {1, 2})
    ws = language_upto(m, 6)
    assert len(ws) > 1
    for w in ws:
        # the erased word and every per-copy subword lie in the base
        assert accepts(alt, theta(w))
        for i in (1, 2):
            assert accepts(alt, theta(pi({i}, w)))


def test_self_similarity_consistent(alt):
    assert check_self_similarity(alt, alt, 3, 8) is None


def test_self_similarity_violation_golden(ring3, ring9):
    got = check_self_similarity(ring3, ring9, 3, 6)
    assert got is not None
    assert got["I"] == frozenset({1, 2, 3})
    assert got["I_prime"] == frozenset({2, 3})
    assert got["word"] == idx_word("a1 b1 a2 a3")
    assert got["projection"] == idx_word("a2 a3")
