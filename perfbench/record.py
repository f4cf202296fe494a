"""Record the expected verdicts of every workload family.

Usage: python3 perfbench/record.py [WORKLOAD ...]

Run once, at the commit the benchmark is defined against.  For each pair it
stores the outcome, the route, a digest of the certificate and the measured
cost of one decide plus replay (used only to order the run schedule, see
``workloads.schedule``).  For modular-net and deep-fragment the outcome is
the hand-derived rule of ``workloads``; a verdict that disagrees, or a
certificate that replay rejects, stops the recording.  For random-general
the pool is the first POOL_SIZE distinct pairs of the criterion-10 draw
sequence whose decision takes at most EXCLUDE_AFTER_S; slower pairs are
listed under "excluded" with the reason.
"""

from __future__ import annotations

import json
import platform
import signal
import sys
import time
from dataclasses import asdict

import worker
import workloads

POOL_SIZE = 1000
EXCLUDE_AFTER_S = 5.0


class _TooSlow(Exception):
    pass


def _alarm(_signum, _frame):
    raise _TooSlow()


def _decide(sc, budgets, P, V, mode):
    t0 = time.perf_counter()
    verdict = sc.decision.decide_sp(P, V, mode, budgets)
    replayed = sc.decision.replay_certificate(P, V, verdict)
    return verdict, replayed, time.perf_counter() - t0


def _entry(verdict, cost):
    return {
        "outcome": verdict.outcome,
        "route": verdict.route,
        "cert": worker.cert_digest(verdict.certificate),
        "cost_s": round(cost, 4),
    }


def record_rule_family(sc, budgets, workload: str) -> dict:
    pairs = {}
    for pid, (P, V, mode, want) in worker.build_corpus(sc, workload, {}).items():
        verdict, replayed, cost = _decide(sc, budgets, P, V, mode)
        if verdict.outcome != want or not replayed:
            raise SystemExit(
                f"{workload} {pid}: {verdict.outcome} (replay {replayed}), rule says {want}"
            )
        pairs[pid] = _entry(verdict, cost)
    return {"pairs": pairs}


def record_random_pool(sc, budgets) -> dict:
    parse, normalize = sc.automata.parse_automaton, sc.automata.normalize
    serialize = sc.automata.serialize_automaton
    pairs, excluded, seen = {}, {}, set()
    signal.signal(signal.SIGALRM, _alarm)
    for i, (p_text, v_text) in enumerate(workloads.random_draws()):
        if len(pairs) == POOL_SIZE:
            break
        try:
            P, V = normalize(parse(p_text)), normalize(parse(v_text))
        except sc.automata.EmptyLanguage:
            continue
        key = (serialize(P), serialize(V))
        if key in seen:
            continue
        seen.add(key)
        signal.setitimer(signal.ITIMER_REAL, EXCLUDE_AFTER_S)
        try:
            verdict, replayed, cost = _decide(sc, budgets, P, V, "general")
        except _TooSlow:
            excluded[str(i)] = f"decide plus replay over {EXCLUDE_AFTER_S} s"
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not replayed:
            raise SystemExit(f"random-general {i}: replay rejected the certificate")
        pairs[str(i)] = _entry(verdict, cost)
    return {"pairs": pairs, "excluded": excluded}


def write_expected(path, data: dict) -> None:
    """JSON with one pair per line, so a re-recording diffs readably."""
    head = {k: v for k, v in data.items() if k != "pairs"}
    lines = [
        f"  {json.dumps(pid)}: {json.dumps(rec, sort_keys=True)}"
        for pid, rec in data["pairs"].items()
    ]
    text = json.dumps(head, indent=1, sort_keys=True)[:-2]
    text += ',\n "pairs": {\n' + ",\n".join(lines) + "\n }\n}\n"
    path.write_text(text)


def main(argv) -> int:
    sc = worker.import_program()
    budgets = sc.decision.Budgets()
    for workload in argv or workloads.WORKLOADS:
        if workload == "random-general":
            data = record_random_pool(sc, budgets)
        else:
            data = record_rule_family(sc, budgets, workload)
        data = {
            "workload": workload,
            "budgets": asdict(budgets),
            "python": platform.python_version(),
            **data,
        }
        path = worker.expected_path(workload)
        path.parent.mkdir(exist_ok=True)
        write_expected(path, data)
        print(f"{workload}: {len(data['pairs'])} pairs -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
