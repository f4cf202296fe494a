"""Seeded pair generators for the three benchmark workloads.

Every generator yields automaton *text*; the program only ever sees what
`shufflecheck.automata.parse_automaton` reads.  Each pair has a stable id,
and the expected outcome of every pair is fixed before the program runs:

* ``random-general``: the criterion-10 distribution of the acceptance
  suite (random DFAs over {a, b} with at most three states, edge
  probability 0.6, empty languages redrawn).  The family is a fixed pool
  of distinct pairs drawn from that distribution with the criterion-10
  seed; its outcomes were recorded once (``expected/random-general.json``)
  and are cross-checked by ``check_expectations.py``.
* ``modular-net``: P is one short word (``ab``, ``aab`` or ``abb``) and V
  counts one letter modulo k (k in 4..14), accepting residue 0.  A word of
  the shuffle with m components holds m*c copies of the counted letter,
  where c (1 or 2) is how often P's word contains it.  Some m makes m*c a
  multiple of k; deleting one component leaves (m-1)*c, which is -c mod k
  and not 0 because 0 < c < k.  So every such pair *fails*.  The family
  also holds ``ab`` against "#a - #b = 0 mod k": every component adds 0
  to the difference, so every shuffle word and every remainder is in V,
  and the pair *holds*.
* ``deep-fragment``: P = {ab} in prefix mode against the prefix-closed
  depth chain -m..n over {a, b} (a goes one deeper, b one shallower,
  starting at depth 0).  In a shuffle of prefixes of ``ab`` every b follows
  its own component's a, so a prefix's depth is its number of open
  components: never below 0, and never raised by deleting a component.
  So the pair always *holds*.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("random-general", "modular-net", "deep-fragment")

# Seed of test_criterion_10_pipeline_never_contradicts; the first draws of
# the random-general pool are that test's pairs.
CRITERION_10_SEED = 101010

MODULAR_WORDS = ("ab", "aab", "abb")
MODULAR_K = range(4, 15)
# Chain depths: below n = 14 the falsifier's fixed cost exceeds a tenth of
# decide time; above 18 a 34 s run holds too few pairs for steady
# quantiles.  The shallow side m gives distinct pairs of similar cost.
DEPTH_N = range(14, 19)
DEPTH_M = range(0, 5)


def _dfa_text(states, initial, finals, trans) -> str:
    lines = [
        "kind: dfa",
        "alphabet: a b",
        "states: " + " ".join(states),
        f"initial: {initial}",
        "finals: " + " ".join(finals),
    ]
    lines += [f"trans: {q} {a} {p}" for q, a, p in trans]
    return "\n".join(lines) + "\n"


def random_dfa_text(rng: random.Random) -> str:
    """One draw of the criterion-10 distribution.

    Consumes the generator exactly like ``random_dfa`` in the test suite's
    conftest, so equal seeds give equal automata.
    """
    n = rng.randint(1, 3)
    states = [str(i) for i in range(1, n + 1)]
    trans = []
    for q in states:
        for a in "ab":
            if rng.random() < 0.6:
                trans.append((q, a, rng.choice(states)))
    finals = [q for q in states if rng.random() < 0.5] or [states[-1]]
    return _dfa_text(states, states[0], finals, trans)


def random_draws(seed: int = CRITERION_10_SEED):
    """Endless (P text, V text) draws, P drawn before V."""
    rng = random.Random(seed)
    while True:
        yield random_dfa_text(rng), random_dfa_text(rng)


def word_text(w: str) -> str:
    states = [f"p{i}" for i in range(len(w) + 1)]
    trans = [(states[i], a, states[i + 1]) for i, a in enumerate(w)]
    return _dfa_text(states, states[0], [states[-1]], trans)


def modular_text(k: int, step_a: int, step_b: int) -> str:
    states = [f"r{i}" for i in range(k)]
    trans = []
    for i in range(k):
        trans.append((states[i], "a", states[(i + step_a) % k]))
        trans.append((states[i], "b", states[(i + step_b) % k]))
    return _dfa_text(states, states[0], [states[0]], trans)


def depth_chain_text(m: int, n: int) -> str:
    name = {i: f"d{i}" if i >= 0 else f"s{-i}" for i in range(-m, n + 1)}
    trans = []
    for i in range(-m, n + 1):
        if i < n:
            trans.append((name[i], "a", name[i + 1]))
        if i > -m:
            trans.append((name[i], "b", name[i - 1]))
    states = list(name.values())
    return _dfa_text(states, name[0], states, trans)


def modular_family() -> dict:
    """id -> (P text, V text, mode, expected outcome)."""
    out = {}
    for k in MODULAR_K:
        for w in MODULAR_WORDS:
            out[f"{w}:#a:{k}"] = (word_text(w), modular_text(k, 1, 0), "general", "fails")
            out[f"{w}:#b:{k}"] = (word_text(w), modular_text(k, 0, 1), "general", "fails")
        out[f"ab:#a-#b:{k}"] = (word_text("ab"), modular_text(k, 1, -1), "general", "holds")
    return out


def depth_family() -> dict:
    """id -> (P text, V text, mode, expected outcome)."""
    return {
        f"ab:depth:{-m}..{n}": (word_text("ab"), depth_chain_text(m, n), "prefix", "holds")
        for n in DEPTH_N
        for m in DEPTH_M
    }


def random_family(expected: dict) -> dict:
    """id -> (P text, V text, mode, expected outcome) for the recorded pool.

    Pool ids are indices into the criterion-10 draw sequence; the recorded
    outcomes come from ``expected`` (see ``record.py``).
    """
    pairs = expected["pairs"]
    last = max(int(i) for i in pairs)
    out = {}
    for i, (p, v) in enumerate(random_draws()):
        if str(i) in pairs:
            out[str(i)] = (p, v, "general", pairs[str(i)]["outcome"])
        if i == last:
            return out


def family(workload: str, expected: dict) -> dict:
    if workload == "random-general":
        return random_family(expected)
    if workload == "modular-net":
        return modular_family()
    if workload == "deep-fragment":
        return depth_family()
    raise ValueError(f"unknown workload {workload!r}")


# A pair outside every family (state names differ from all generated
# texts), decided once before timing so lazy imports and first-call set-up
# are not charged to the first measured pair.
WARMUP = (
    _dfa_text(["w0", "w1", "w2"], "w0", ["w2"], [("w0", "b", "w1"), ("w1", "a", "w2")]),
    _dfa_text(["w0", "w1"], "w0", ["w0"], [("w0", "a", "w0"), ("w0", "b", "w1"), ("w1", "a", "w0")]),
    "general",
)


# Recorded cost (seconds of decide plus replay) at which schedule() closes
# a group of similar pairs.
GROUP_COST_S = 0.15


def schedule(expected: dict, seed: int) -> list:
    """Seeded order in which a run decides the pairs of a family.

    A run decides a prefix of this order.  Pair costs differ by three
    orders of magnitude, and in a plain random order a few dear pairs land
    in some runs and not in others.  Instead the pairs of each recorded
    route, sorted by their cost recorded at the baseline commit, are cut
    into groups of about GROUP_COST_S seconds: a dear pair is a group of
    its own, cheap pairs of one route share one.  The seed shuffles each
    group.  Group g's n members are due at (j + frac(g * 0.618...)) / n for
    j < n, and the schedule sorts pairs by due time.  Every prefix thus
    holds each group in proportion to its size, so each route and each cost
    band keep their share, the dear pairs sit at fixed places, and the seed
    picks which cheap pairs come first.  `expected` maps id -> record with
    "route" and "cost_s".
    """
    rng = random.Random(seed)
    groups, current, mass, route = [], [], 0.0, None
    for pid in sorted(expected, key=lambda i: (expected[i]["route"], expected[i]["cost_s"], i)):
        if current and (mass >= GROUP_COST_S or expected[pid]["route"] != route):
            groups.append(current)
            current, mass = [], 0.0
        current.append(pid)
        mass += expected[pid]["cost_s"]
        route = expected[pid]["route"]
    groups.append(current)
    phi = (math.sqrt(5) - 1) / 2
    due = []
    for g, members in enumerate(groups):
        rng.shuffle(members)
        offset = (g * phi) % 1
        due += [((j + offset) / len(members), g, pid) for j, pid in enumerate(members)]
    return [pid for _, _, pid in sorted(due)]
