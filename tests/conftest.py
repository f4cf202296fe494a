import random

import pytest

from shufflecheck.automata import Dfa, Letter


def mk_dfa(alpha, transitions, initial, finals, kind="dfa"):
    """Compact automaton builder: transitions as (state, 'a', state)."""
    letters = {ch: Letter(ch) for ch in alpha}
    states = {initial} | set(finals)
    delta = {}
    for q, x, p in transitions:
        states |= {q, p}
        delta[(q, letters[x])] = p
    return Dfa(
        alphabet=tuple(letters.values()),
        states=frozenset(states),
        delta=delta,
        initial=initial,
        finals=frozenset(finals),
        kind=kind,
    )


def random_dfa(rng, max_states=3, alpha="ab", p_edge=0.6):
    n = rng.randint(1, max_states)
    states = [str(i) for i in range(1, n + 1)]
    letters = tuple(Letter(c) for c in alpha)
    delta = {}
    for q in states:
        for a in letters:
            if rng.random() < p_edge:
                delta[(q, a)] = rng.choice(states)
    finals = frozenset(q for q in states if rng.random() < 0.5)
    if not finals:
        finals = frozenset([states[-1]])
    return Dfa(letters, frozenset(states), delta, states[0], finals, "dfa")


def depth_chain(n):
    """Prefix-closed depth counter 0..n over {a, b}: a goes one deeper,
    b one shallower."""
    return mk_dfa(
        "ab",
        [(f"d{i}", "a", f"d{i + 1}") for i in range(n)]
        + [(f"d{i}", "b", f"d{i - 1}") for i in range(1, n + 1)],
        "d0",
        [f"d{i}" for i in range(n + 1)],
    )


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def alt():
    # strict a/b alternation starting with a, all prefixes accepted
    return mk_dfa("ab", [("1", "a", "2"), ("2", "b", "1")], "1", ["1", "2"])


@pytest.fixture
def ring3():
    # abc repeated cyclically, every prefix accepted
    return mk_dfa(
        "abc",
        [("1", "a", "2"), ("2", "b", "3"), ("3", "c", "1")],
        "1",
        ["1", "2", "3"],
    )


@pytest.fixture
def ring9():
    # strictly larger cyclic constraint containing ring3's language
    return mk_dfa(
        "abc",
        [
            ("1", "a", "2"),
            ("2", "b", "3"),
            ("3", "c", "1"),
            ("3", "a", "4"),
            ("4", "c", "2"),
            ("4", "a", "5"),
            ("5", "b", "6"),
            ("6", "b", "7"),
            ("7", "c", "8"),
            ("8", "c", "9"),
            ("9", "c", "1"),
        ],
        "1",
        [str(i) for i in range(1, 10)],
    )


@pytest.fixture
def single_ab():
    # component language {ab}
    return mk_dfa("ab", [("I", "a", "II"), ("II", "b", "III")], "I", ["III"])


@pytest.fixture
def single_abc():
    # component language {abc}
    return mk_dfa(
        "abc",
        [("I", "a", "II"), ("II", "b", "III"), ("III", "c", "IV")],
        "I",
        ["IV"],
    )


@pytest.fixture
def two_start():
    # component language {ac, bc}: two start letters into a shared state
    return mk_dfa(
        "abc",
        [("I", "a", "II"), ("I", "b", "II"), ("II", "c", "III")],
        "I",
        ["III"],
    )


@pytest.fixture
def tracker4(two_start):
    # four-state constraint semiautomaton paired with two_start
    return mk_dfa(
        "abc",
        [
            ("1", "a", "2"),
            ("1", "b", "3"),
            ("2", "b", "4"),
            ("2", "c", "1"),
            ("3", "c", "1"),
            ("3", "b", "4"),
            ("4", "c", "3"),
        ],
        "1",
        [],
        kind="semiautomaton",
    )


@pytest.fixture
def astar_b():
    # a*b: unboundedly many a's before the single accepting b
    return mk_dfa("ab", [("1", "a", "1"), ("1", "b", "2")], "1", ["2"])


@pytest.fixture
def single_a():
    # the one-letter component language {a} over {a, b}
    return mk_dfa("ab", [("I", "a", "II")], "I", ["II"])


@pytest.fixture
def b_chain():
    # accepts the empty word, a and baaa: reading only a from the start
    # reaches three states (with the sink), but five states reach F
    # through a-steps
    return mk_dfa(
        "ab",
        [("0", "a", "F"), ("0", "b", "y1"), ("y1", "a", "y2"),
         ("y2", "a", "y3"), ("y3", "a", "F")],
        "0",
        ["0", "F"],
    )


@pytest.fixture
def mod3_a():
    # #a = 0 mod 3 over {a, b}
    return mk_dfa(
        "ab",
        [(f"r{i}", x, f"r{(i + (x == 'a')) % 3}") for i in range(3) for x in "ab"],
        "r0",
        ["r0"],
    )
