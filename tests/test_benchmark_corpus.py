"""The benchmark's pairs, decided and replayed in the suite.

Every pair of the three workloads keeps the outcome, route and certificate
digest recorded in `perfbench/expected/`, and its certificate replays.
The corpus, the recorded results and the digest come from
`perfbench/worker.py`, imported and only read.  The net route's work on
modular-net, its Karp–Miller nodes and marking BFS markings, is pinned
too, under two hash seeds: the norm search finds a counterexample on
every pair, so no Karp–Miller tree is built and the BFS is bounded.
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
    """(pairs, Karp–Miller nodes, markings) over modular-net's pairs that
    fail by `net-reachability`; a pair whose tree was not built counts 0
    nodes."""
    verdicts = [
        v for _, v, _ in decided("modular-net").values()
        if v.route == "net-reachability"
    ]
    return (
        len(verdicts),
        sum(v.stats.get("km_nodes", 0) for v in verdicts),
        sum(v.stats["markings"] for v in verdicts),
    )


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
    # the norm search bounds every witness's length, so the marking BFS
    # keeps only markings that can still close in time and no tree is built
    code = (
        "import json, test_benchmark_corpus as t; "
        "print(json.dumps(t.net_work()))"
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
    assert json.loads(out) == [64, 0, 32060]
