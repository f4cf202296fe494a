"""The census: every pair of small automata, decided, replayed and checked.

The census automata are every dfa over {a, b} with one or two states,
state 1 initial, any partial transition function and a nonempty set of
finals, normalized.  A dfa whose language is empty is skipped, one dfa is
kept per `serialize_automaton` text, and they are ordered by that text.
Every ordered pair (P, V) is decided at CENSUS_BUDGETS in general mode,
and in prefix mode where V is prefix closed.  A pair's id is (index of P,
index of V, mode), written "P V mode".

Every decision must pass three checks: its certificate replays; a Holds is
not contradicted by `engine.sp_falsify` at length 9; and the outcomes
match `tests/golden/census.json`.  That file records the count of each
(mode, outcome, route), a sha256 of the sorted ids of each (mode,
outcome), and the ids of the Unknowns in full.

At CENSUS_BUDGETS the falsifier settles almost every Fails, so the census
is decided a second time with the falsifier off (NO_FALSIFIER), where the
net route settles thousands of pairs.  `tests/golden/census_f0.json`
records those decisions in the same form, with a sha256 of the sorted
`serialize_verdict` texts of the net-route decisions, so every net-route
certificate and stat is held to its record.

The census is exhaustive by definition, so it is never shrunk, sampled or
re-seeded.  A change may move an outcome only from Unknown to Holds or
Fails, and it lists each move in CHANGES.md.  To print the record of the
current code, run `PYTHONPATH=src python tests/test_census.py`, and for
census_f0.json add the argument `f0`.
"""

import hashlib
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from shufflecheck.automata import (
    Dfa,
    EmptyLanguage,
    Letter,
    is_prefix_closed,
    normalize,
    serialize_automaton,
)
from shufflecheck.decision import (
    Budgets,
    decide_sp,
    prepare_query,
    replay_certificate,
    serialize_verdict,
)
from shufflecheck.engine import sp_falsify

RECORD = Path(__file__).parent / "golden" / "census.json"
NET_RECORD = Path(__file__).parent / "golden" / "census_f0.json"
CENSUS_BUDGETS = Budgets(km_node_cap=20_000, forward_cap=20_000)
NO_FALSIFIER = replace(CENSUS_BUDGETS, falsifier_maxlen=0)
CONTRADICTION_LEN = 9


def census_automata() -> list:
    """The census automata, normalized, one per text, in text order."""
    alphabet = (Letter("a"), Letter("b"))
    by_text = {}
    for n in (1, 2):
        states = [str(i) for i in range(1, n + 1)]
        keys = [(q, a) for q in states for a in alphabet]
        for targets in itertools.product([None, *states], repeat=len(keys)):
            delta = {k: p for k, p in zip(keys, targets) if p is not None}
            for r in range(1, n + 1):
                for finals in itertools.combinations(states, r):
                    dfa = Dfa(alphabet, frozenset(states), delta, "1", frozenset(finals))
                    try:
                        dfa = normalize(dfa)
                    except EmptyLanguage:
                        continue
                    by_text.setdefault(serialize_automaton(dfa), dfa)
    return [by_text[text] for text in sorted(by_text)]


def census_queries(automata: list) -> list:
    """(id, P, V, mode) for every decision of the census, in id order."""
    queries = []
    for i, P in enumerate(automata):
        for j, V in enumerate(automata):
            modes = ("general", "prefix") if is_prefix_closed(V) else ("general",)
            queries += [((i, j, mode), P, V, mode) for mode in modes]
    return queries


def _id_text(pid: tuple) -> str:
    return "{} {} {}".format(*pid)


def census_record(verdicts: dict) -> dict:
    """The record of id -> verdict that census.json holds."""
    counts: dict = {}
    ids: dict = {}
    for pid in sorted(verdicts):
        v = verdicts[pid]
        by_route = counts.setdefault(v.mode, {}).setdefault(v.outcome, {})
        by_route[v.route] = by_route.get(v.route, 0) + 1
        ids.setdefault(v.mode, {}).setdefault(v.outcome, []).append(_id_text(pid))
    return {
        "decisions": len(verdicts),
        "counts": counts,
        "ids_sha256": {
            mode: {
                outcome: hashlib.sha256("\n".join(texts).encode()).hexdigest()
                for outcome, texts in by_outcome.items()
            }
            for mode, by_outcome in ids.items()
        },
        "unknown": [
            text for by_outcome in ids.values() for text in by_outcome.get("unknown", ())
        ],
    }


def net_record(verdicts: dict) -> dict:
    """The record of id -> verdict that census_f0.json holds: the
    `census_record`, and a sha256 of the sorted report texts of the
    net-route verdicts."""
    texts = sorted(
        serialize_verdict(v) for v in verdicts.values() if v.route.startswith("net-")
    )
    return {
        **census_record(verdicts),
        "net_reports_sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
    }


def decide_census(budgets: Budgets = CENSUS_BUDGETS) -> tuple:
    """(automata, [(id, P, V, verdict)]) for the whole census."""
    automata = census_automata()
    decided = [
        (pid, P, V, decide_sp(P, V, mode, budgets))
        for pid, P, V, mode in census_queries(automata)
    ]
    return automata, decided


@pytest.fixture(scope="module")
def census():
    return decide_census()


def test_census_matches_its_record(census):
    automata, decided = census
    record = json.loads(RECORD.read_text())
    assert len(automata) == record["automata"]
    got = census_record({pid: v for pid, _P, _V, v in decided})
    assert got["unknown"] == record["unknown"]
    assert got == {k: v for k, v in record.items() if k != "automata"}


def test_census_without_the_falsifier_matches_its_record():
    automata, decided = decide_census(NO_FALSIFIER)
    record = json.loads(NET_RECORD.read_text())
    assert len(automata) == record["automata"]
    got = net_record({pid: v for pid, _P, _V, v in decided})
    assert got == {k: v for k, v in record.items() if k != "automata"}


def test_census_certificates_replay(census):
    _automata, decided = census
    refused = [
        _id_text(pid) for pid, P, V, v in decided if not replay_certificate(P, V, v)
    ]
    assert refused == []


def test_census_holds_survive_a_longer_falsifier(census):
    _automata, decided = census
    contradicted = []
    for pid, P, V, v in decided:
        if v.outcome != "holds":
            continue
        comp, V = prepare_query(P, V, v.mode)
        if sp_falsify(comp, V, CONTRADICTION_LEN) is not None:
            contradicted.append(_id_text(pid))
    assert contradicted == []


if __name__ == "__main__":
    net = sys.argv[1:] == ["f0"]
    automata, decided = decide_census(NO_FALSIFIER if net else CENSUS_BUDGETS)
    record = (net_record if net else census_record)(
        {pid: v for pid, _P, _V, v in decided}
    )
    print(json.dumps({"automata": len(automata), **record}, indent=1, sort_keys=True))
