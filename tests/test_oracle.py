from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecheck.automata import grave, word
from shufflecheck.engine import Computation, ZERO, parse_transition
from shufflecheck.oracle import (
    iterated_shuffle_upto,
    one_factor_removals,
    shuffle_pair,
)
from conftest import mk_dfa
from oracle_reference import (
    computation_of_structured,
    encode_bracketed,
    shuffled_runs,
    sp_falsify,
    srf1,
    swf1,
)


words = st.lists(st.sampled_from("ab"), max_size=5).map(
    lambda cs: word("".join(cs))
)


@given(words, words)
def test_shuffle_pair_symmetric(u, v):
    assert shuffle_pair(u, v) == shuffle_pair(v, u)


@given(words, words)
def test_shuffle_pair_contains_concatenations(u, v):
    s = shuffle_pair(u, v)
    assert u + v in s and v + u in s
    assert all(len(w) == len(u) + len(v) for w in s)


def test_shuffle_pair_golden():
    got = {"".join(a.symbol for a in w) for w in shuffle_pair(word("ab"), word("c"))}
    assert got == {"cab", "acb", "abc"}


def test_iterated_shuffle_upto(single_ab):
    members = {
        "".join(a.symbol for a in w) for w in iterated_shuffle_upto(single_ab, 4)
    }
    assert members == {"", "ab", "abab", "aabb"}


def test_one_factor_removals(single_ab):
    got = one_factor_removals(single_ab, word("aabb"))
    # removing either interleaved copy of the component leaves "ab"
    assert (word("ab"), word("ab"), (0, 2)) in got
    assert (word("ab"), word("ab"), (0, 3)) in got
    assert (word("ab"), word("ab"), (1, 2)) in got
    assert (word("ab"), word("ab"), (1, 3)) in got


def test_swf1_keeps_members(single_ab):
    m = iterated_shuffle_upto(single_ab, 4)
    reduced = swf1(single_ab, m)
    assert word("ab") in reduced
    assert () in reduced
    # every member survives via the empty deletion
    assert set(m) <= set(reduced)


def test_falsifier_golden(ring3, ring9):
    found = sp_falsify(ring3, ring9, 4)
    assert found is not None
    w, u, e, positions = found
    assert w == word("abaa")
    assert u == word("aa")
    assert e == word("ab")
    assert positions == (0, 1)


def test_falsifier_clean(alt):
    assert sp_falsify(grave(alt), alt, 5) is None


def test_bracketed_encoding_roundtrip(single_ab):
    x = encode_bracketed(word("ab"), 1)
    c = computation_of_structured(single_ab, x)
    assert c.final == ZERO
    assert [str(a) for a in c.label()] == ["a", "b"]


def test_shuffled_runs_reconstruct_interleavings(single_ab):
    d = computation_of_structured(single_ab, encode_bracketed(word("ab"), 1))
    e = computation_of_structured(single_ab, encode_bracketed(word("ab"), 2))
    runs = shuffled_runs(single_ab, d, e)
    labels = {"".join(str(a) for a in r.label()) for r in runs}
    assert labels == {"abab", "aabb", "abab"} | {"aabb"}
    assert all(r.final == ZERO for r in runs)


def test_srf1_contains_identity_and_single_deletion(single_ab):
    steps = [
        parse_transition("(0) a (II:1) [start]"),
        parse_transition("(II:1) a (II:2) [start]"),
        parse_transition("(II:2) b (II:1) [end]"),
        parse_transition("(II:1) b (0) [end]"),
    ]
    c = Computation(steps)
    out = srf1(single_ab, c)
    assert c in out
    labels = {"".join(str(a) for a in u.label()) for u in out}
    # exactly the identity and the two symmetric one-copy deletions
    assert labels == {"aabb", "ab"}


def test_srf1_allows_open_deleted_component(single_ab):
    # mid-word the tracked component may still be open
    steps = [
        parse_transition("(0) a (II:1) [start]"),
        parse_transition("(II:1) a (II:2) [start]"),
    ]
    c = Computation(steps)
    labels = {"".join(str(a) for a in u.label()) for u in srf1(single_ab, c)}
    assert labels == {"aa", "a"}
