"""The breadth-first falsifier, which expands each configuration once,
against the brute-force oracle."""

import random

import pytest

from shufflecheck import engine, oracle
from shufflecheck.automata import (
    EmptyLanguage,
    UnknownLetter,
    grave,
    normalize,
    subword_closed,
    word,
)
from shufflecheck.decision import decide_sp, replay_certificate
from conftest import even_length, mk_dfa, random_dfa, sigma_star, wide_draw
import oracle_reference


def distinct_pairs(seed, alpha, count):
    """The first `count` distinct normalized pairs of the criterion-10 draw."""
    rng = random.Random(seed)
    seen = []
    while len(seen) < count:
        P = random_dfa(rng, max_states=3, alpha=alpha)
        V = random_dfa(rng, max_states=3, alpha=alpha)
        try:
            pair = (normalize(P), normalize(V))
        except EmptyLanguage:
            continue
        if pair not in seen:
            seen.append(pair)
    return seen


def test_falsifier_golden(ring3, ring9):
    w, u, e, positions = engine.sp_falsify(ring3, ring9, 4)
    assert w == word("abaa")
    assert u == word("aa")
    assert e == word("ab")
    assert positions == (0, 1)


@pytest.mark.parametrize("mode", ["general", "prefix"])
def test_matches_oracle_on_random_pairs(mode):
    pairs = distinct_pairs(101010, "ab", 200)
    # both branches of the falsifier meet the oracle: the answer without a
    # search for a subword-closed V, and the search for the others
    closed = sum(subword_closed(V) for _, V in pairs)
    assert 0 < closed < len(pairs)
    for P, V in pairs:
        comp = grave(P) if mode == "prefix" else P
        expected = oracle_reference.sp_falsify(comp, V, 6)
        assert engine.sp_falsify(comp, V, 6) == expected
        # the oracle's answer is the least violating word within the bound,
        # so its answer at bound 5 is the one at bound 6 when that is short
        if expected is not None and len(expected[0]) > 5:
            expected = None
        assert engine.sp_falsify(comp, V, 5) == expected


def test_matches_oracle_on_three_letters():
    for P, V in distinct_pairs(303030, "abc", 40):
        for comp in (P, grave(P)):
            assert engine.sp_falsify(comp, V, 5) == oracle_reference.sp_falsify(comp, V, 5)


def test_matches_oracle_on_wide_draws():
    # three letters, semiautomaton constraints among the dfa ones, both
    # modes and every bound up to 5; the oracle's answer is the least
    # violating word within its bound, so its answer at a smaller bound is
    # the one at 5 when that is short enough and None otherwise
    rng = random.Random(17)
    semi = found = 0
    for _ in range(40):
        P, V = wide_draw(rng)
        try:
            P, V = normalize(P), normalize(V)
        except EmptyLanguage:
            continue
        semi += V.kind == "semiautomaton"
        for comp in (P, grave(P)):
            at5 = oracle_reference.sp_falsify(comp, V, 5)
            found += at5 is not None
            for bound in range(6):
                expected = at5 if at5 is not None and len(at5[0]) <= bound else None
                assert engine.sp_falsify(comp, V, bound) == expected, (P, V, bound)
    assert semi >= 5 and found >= 10


def test_the_first_prefix_to_reach_a_configuration_is_the_least():
    # ba violates: deleting the component a at position 1 leaves b, which
    # V rejects.  bb violates too.  Stepping configuration by configuration
    # instead of prefix by prefix first reaches the violating configuration
    # from b followed by b and answers bb.
    P = mk_dfa("ab", [("1", "a", "2"), ("1", "b", "2"), ("2", "a", "1"),
                      ("2", "b", "2")], "1", ["1", "2"])
    V = mk_dfa("ab", [("1", "a", "1"), ("1", "b", "2"), ("2", "a", "1"),
                      ("2", "b", "1")], "1", ["1"])
    expected = (word("ba"), word("b"), word("a"), (1,))
    assert oracle_reference.sp_falsify(P, V, 6) == expected
    assert engine.sp_falsify(P, V, 6) == expected


def test_length_guard():
    assert oracle.BudgetExceeded is engine.BudgetExceeded
    S = sigma_star("ab")
    with pytest.raises(engine.BudgetExceeded):
        engine.sp_falsify(S, S, 33)
    assert engine.sp_falsify(S, S, 32) is None
    with pytest.raises(ValueError):
        engine.sp_falsify(S, S, -1)


@pytest.mark.parametrize("alpha", ["abc", "abcde"])
def test_trivial_pair_decides_via_the_net(alpha):
    # the brute force took ~22 s on {a,b,c}* and did not finish on five
    # letters; each configuration is expanded once
    S = sigma_star(alpha)
    v = decide_sp(S, S, "general")
    assert (v.outcome, v.route) == ("holds", "net-uncoverable")
    assert replay_certificate(S, S, v)


def test_five_letter_sigma_star_is_clean_at_length_8():
    S = sigma_star("abcde")
    assert engine.sp_falsify(S, S, 8) is None


def test_five_letter_even_lengths_are_clean_at_length_8():
    # components of even length against even-length words: deleting a
    # component keeps the length even, yet deleting a letter does not, so
    # V is not subword closed and the falsifier searches
    E = even_length("abcde")
    assert not subword_closed(E)
    assert engine.sp_falsify(E, E, 8) is None
    v = decide_sp(E, E, "general")
    assert v.outcome == "holds"
    assert replay_certificate(E, E, v)


def test_subword_closed_constraint_builds_no_engine(
    monkeypatch, ring3, ring9, a_star_b_star
):
    def no_engine(P):
        raise AssertionError("the falsifier built an engine")

    monkeypatch.setattr(engine, "engine_for", no_engine)
    S = sigma_star("ab")
    for P in (S, a_star_b_star, even_length("ab")):
        for V in (S, a_star_b_star):
            assert engine.sp_falsify(P, V, 8) is None
    # a V that is not subword closed still reaches the search
    with pytest.raises(AssertionError):
        engine.sp_falsify(ring3, ring9, 4)
    # the argument checks come first
    with pytest.raises(engine.BudgetExceeded):
        engine.sp_falsify(S, S, 33)
    with pytest.raises(ValueError):
        engine.sp_falsify(S, S, -1)
    a_star = mk_dfa("a", [("1", "a", "1")], "1", ["1"])
    assert subword_closed(a_star)
    with pytest.raises(UnknownLetter):
        engine.sp_falsify(S, a_star, 6)
