"""The benchmark's pairs, decided and replayed in the suite.

Every pair of the three workloads keeps the outcome, route and certificate
digest recorded in `perfbench/expected/`, and its certificate replays.
The corpus, the recorded results and the digest come from
`perfbench/worker.py`, imported and only read.  The net route's work on
modular-net, its Karp–Miller nodes, witness search markings and norm
bounds, is pinned too, under two hash seeds: the norm levels find a
counterexample on every pair, so no Karp–Miller tree is built and the
search is bounded.  So
is the prefix route's work on deep-fragment, its product states and
closure search states, since its walks iterate sets of packed product
states, whose order follows the string hash seed.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shufflecheck
from shufflecheck.decision import Budgets, decide_sp, replay_certificate

ROOT = Path(__file__).resolve().parent.parent


def _worker():
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", ROOT / "perfbench" / "worker.py"
    )
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def decided(workload: str) -> dict:
    """pid -> (recorded, verdict, replayed) for every pair of workload,
    decided and replayed with `Budgets()`; recorded is the pair's entry in
    `perfbench/expected/`."""
    worker = _worker()
    expected = worker.load_expected(workload)
    corpus = worker.build_corpus(shufflecheck, workload, expected)
    out = {}
    for pid, (P, V, mode, _outcome) in corpus.items():
        verdict = decide_sp(P, V, mode, Budgets())
        out[pid] = (
            expected["pairs"][pid], verdict, replay_certificate(P, V, verdict)
        )
    return out


def net_work() -> tuple:
    """(pairs, Karp–Miller nodes, markings, norm levels, norm lengths)
    over modular-net's pairs that fail by `net-reachability`; a pair whose
    tree was not built counts 0 nodes, and one without a norm bound 0 for
    its level and length."""
    verdicts = [
        v for _, v, _ in decided("modular-net").values()
        if v.route == "net-reachability"
    ]
    return (
        len(verdicts),
        sum(v.stats.get("km_nodes", 0) for v in verdicts),
        sum(v.stats["markings"] for v in verdicts),
        sum(v.stats.get("norm_level", 0) for v in verdicts),
        sum(v.stats.get("norm_length", 0) for v in verdicts),
    )


def fragment_work() -> tuple:
    """(pairs, product states, closure states) over deep-fragment's pairs,
    which all hold by `prefix-fragment`: the states the prefix walk kept,
    and those the closure search of each decide explored."""
    from shufflecheck import decision

    explored = []
    real = decision.check_closure_prefix

    def counted(*args):
        out = real(*args)
        explored.append(out.states_explored)
        return out

    worker = _worker()
    corpus = worker.build_corpus(
        shufflecheck, "deep-fragment", worker.load_expected("deep-fragment")
    )
    decision.check_closure_prefix = counted
    try:
        verdicts = [decide_sp(P, V, mode, Budgets()) for P, V, mode, _ in corpus.values()]
    finally:
        decision.check_closure_prefix = real
    assert {v.route for v in verdicts} == {"prefix-fragment"}
    return (
        len(verdicts),
        sum(int(v.stats["product_states"]) for v in verdicts),
        sum(explored),
    )


def _pinned(function: str, hash_seed: str) -> list:
    """The JSON of this module's function(), run under hash_seed."""
    code = (
        "import json, test_benchmark_corpus as t; "
        f"print(json.dumps(t.{function}()))"
    )
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
    }
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize("workload", ("random-general", "modular-net", "deep-fragment"))
def test_benchmark_pairs_keep_outcome_route_and_certificate(workload):
    digest = _worker().cert_digest
    changed = [
        (pid, verdict.outcome, verdict.route, digest(verdict.certificate), replayed)
        for pid, (rec, verdict, replayed) in decided(workload).items()
        if (verdict.outcome, verdict.route, digest(verdict.certificate), replayed)
        != (rec["outcome"], rec["route"], rec["cert"], True)
    ]
    assert changed == []


@pytest.mark.parametrize("hash_seed", ("0", "123"))
def test_modular_net_route_work_is_pinned(hash_seed):
    # the norm levels bound every witness's length, each at the first level
    # with a counterexample, so the witness search keeps only markings that
    # can still close in time and no tree is built
    assert _pinned("net_work", hash_seed) == [64, 0, 32060, 64, 1410]


@pytest.mark.parametrize("hash_seed", ("0", "123"))
def test_deep_fragment_route_work_is_pinned(hash_seed):
    assert _pinned("fragment_work", hash_seed) == [25, 3850, 14550]
