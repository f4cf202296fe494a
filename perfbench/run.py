"""The shufflecheck benchmark: one workload, one seed, one run.

Usage:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
The load is a closed loop: one caller in one single-threaded process sends
the next (P, V) pair only after ``decide_sp`` and ``replay_certificate``
have answered the last one.  A run decides the seed's schedule of pairs up
to T seconds of cost recorded at the baseline commit, so it does the same
work on every machine and commit (see ``worker.py``).  Every verdict is
checked against the pair's expected outcome (see ``workloads.py`` and
``expected/``).

With ``--trace 0`` one untraced pass gives the end-to-end metrics, and
set-up is timed in fresh interpreters before and after it, for its median.
Latency percentiles are Harrell-Davis estimates (see ``quantile``).  With
``--trace 1`` a traced pass gives the per-layer metrics and an untraced
pass over the same pairs gives the tracing overhead.  Each pass runs in
its own fresh interpreter (``worker.py``).  The last line of standard
output is one JSON object; the full result, with the budgets, Python
version and CPU count, is also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Fresh interpreters timed for set-up: half before the measured pass, the
# measuring one, and half after it, so a short burst of machine speed
# does not set the median.
SETUP_SAMPLES = 9
# Two passes capped at worker.WALL_LIMIT_S, plus set-up, fit in this.
TIME_LIMIT_S = 175.0
ROUTES = (
    "falsifier",
    "prefix-fragment",
    "zero-fragment",
    "net-uncoverable",
    "net-exhaustive",
    "net-reachability",
    "net-budget",
)


class BenchError(Exception):
    pass


def run_worker(args: list, seed: int, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a pass")
    # A fixed hash seed per run seed keeps set iteration order, and with it
    # the program's search order, the same for the same inputs.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(samples: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of `samples`.

    A single order statistic is one pair's time, and on a noisy machine a
    pair's time moves by a fifth from run to run.  Harrell-Davis takes the
    mean of all order statistics, the i-th weighted by the Beta((n+1)q,
    (n+1)(1-q)) mass over [(i-1)/n, i/n], so the few pairs around the
    quantile share its noise.  The weights are integrated by the midpoint
    rule.  0 for no samples.
    """
    s = sorted(samples)
    n = len(s)
    if not n:
        return 0.0
    if q <= 0:
        return s[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64 * n
    weights = [0.0] * n
    for j in range(steps):
        x = (j + 0.5) / steps
        weights[j * n // steps] += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(w * v for w, v in zip(weights, s)) / sum(weights)


def tail_q(n: int) -> float:
    """The highest whole percentile with at least ten of n samples beyond
    it, as a fraction.  With ten samples or fewer none qualifies, and this
    gives 0, the smallest sample."""
    return max(0, 100 * (n - 10)) // n / 100 if n else 0.0


def rate(samples: list) -> float:
    """Samples per second of their summed time; 0 for no samples."""
    return len(samples) / sum(samples) if samples else 0.0


def timings(d: list, r: list) -> dict:
    """The latency and throughput metrics of decide times d and replay times r."""
    return {
        "decide_pairs_per_s": (rate(d), "1/s"),
        "decide_ms.p50": (quantile(d, 0.5) * 1e3, "ms"),
        "decide_ms.tail": (quantile(d, tail_q(len(d))) * 1e3, "ms"),
        "replay_pairs_per_s": (rate(r), "1/s"),
        "replay_ms.p50": (quantile(r, 0.5) * 1e3, "ms"),
    }


def end_to_end(main: dict, setups: list) -> tuple:
    """Metrics from the measured pass and the set-up passes.  Times are
    scaled to the reference machine speed; their wall-clock values go to
    the info line."""
    out = main["outcomes"]
    n = main["attempted"]
    metrics = {
        **timings(main["decide_s"], main["replay_s"]),
        "decided_share": ((out.get("holds", 0) + out.get("fails", 0)) / n, "share"),
        "ok_share": (1 - main["failed"] / n, "share"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
    }
    wall = timings(main["wall_decide_s"], main["wall_replay_s"])
    wall["setup_s"] = (statistics.median(p["wall_setup_s"] for p in setups), "s")
    notes = {
        "decide_ms.tail": f"p{round(100 * tail_q(n))} of {n} samples",
        "speed": main["speed"],
        "wall": {k: v for k, (v, _) in wall.items()},
        "setup_samples": [p["setup_s"] for p in setups],
    }
    return metrics, notes


def per_layer(traced: dict, plain: dict) -> dict:
    dl = traced["layers"]["decision.decide_sp"]
    rl = traced["layers"]["decision.replay_certificate"]
    D = dl["decision.decide_sp"]["s"]
    R = rl["decision.replay_certificate"]["s"]

    def of(stats, key, base=1.0):
        return stats.get(key, 0) / base if base else 0.0

    closure = ("decision.check_closure_prefix", "decision.check_closure_zero")
    sp = dl["decision.sp_falsify"]
    km = dl["petri.karp_miller"]
    zero = dl["decision.decide_alf_zero_finite"]
    m = {
        "decision.decide_sp.s": (D, "s"),
        "decision.replay_certificate.s": (R, "s"),
        "decision.decide_sp.self_share": (of(dl["decision.decide_sp"], "self_s", D), "share"),
        "decision.replay_certificate.self_share": (
            of(rl["decision.replay_certificate"], "self_s", R), "share"),
        "oracle.sp_falsify.share": (of(sp, "s", D), "share"),
        "oracle.sp_falsify.hit_share": (of(sp, "hits", sp["calls"]), "share"),
        "oracle.words": (of(dl["oracle.iterated_shuffle_upto"], "words"), "count"),
        "oracle.removals": (of(dl["oracle.one_factor_removals"], "removals"), "count"),
        "engine.successors.calls": (dl["engine.successors"]["calls"], "count"),
        "engine.successors.self_share": (of(dl["engine.successors"], "self_s", D), "share"),
        "petri.karp_miller.calls": (km["calls"], "count"),
        "petri.karp_miller.self_share": (of(km, "self_s", D), "share"),
        "petri.karp_miller.nodes": (of(km, "nodes"), "count"),
        "petri.karp_miller.capped": (of(km, "capped"), "count"),
        "petri.reachable_markings.self_share": (
            of(dl["petri.reachable_markings"], "self_s", D), "share"),
        "petri.reachable_markings.markings": (
            of(dl["petri.reachable_markings"], "markings"), "count"),
        "petri.build_product.self_share": (of(dl["petri.build_product"], "self_s", D), "share"),
        "petri.build_product.states": (of(dl["petri.build_product"], "states"), "count"),
        "petri.build_np_v_full.self_share": (
            of(dl["petri.build_np_v_full"], "self_s", D), "share"),
        "petri.pre_fragment.share": (of(dl["decision.decide_alf_pre_finite"], "s", D), "share"),
        "petri.zero_fragment.share": (of(zero, "s", D), "share"),
        "petri.zero_fragment.finite_share": (of(zero, "finite", zero["calls"]), "share"),
        "petri.net.share": (of(dl["decision.decide_sp_via_net"], "s", D), "share"),
        "representation.build_w_delta.self_share": (
            of(dl["representation.build_w_delta"], "self_s", D), "share"),
        "representation.build_w_delta.states": (
            of(dl["representation.build_w_delta"], "states"), "count"),
        "representation.closure.self_share": (
            sum(of(dl[c], "self_s", D) for c in closure), "share"),
        "representation.closure.states": (sum(of(dl[c], "states") for c in closure), "count"),
        "replay.engine.successors.self_share": (
            of(rl["engine.successors"], "self_s", R), "share"),
        "replay.petri.karp_miller.self_share": (
            of(rl["petri.karp_miller"], "self_s", R), "share"),
        "replay.representation.closure.self_share": (
            sum(of(rl[c], "self_s", R) for c in closure), "share"),
    }
    n = traced["attempted"]
    for route in ROUTES:
        m[f"route.{route}.share"] = (traced["routes"].get(route, 0) / n, "share")
    plain_rate = rate(plain["decide_s"])
    m["trace.overhead"] = (rate(traced["decide_s"]) / plain_rate if plain_rate else 0.0, "ratio")
    m["check.route_changed"] = (traced["route_changed"], "count")
    m["check.cert_changed"] = (traced["cert_changed"], "count")
    # Every wrapped name, so a refactor that bypasses a wrapper reads 0.
    for label in dl:
        m[f"calls.{label}"] = (dl[label]["calls"] + rl[label]["calls"], "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace == 0:

            def setup_samples() -> list:
                return [
                    run_worker(base + ["--setup-only"], args.seed, deadline)
                    for _ in range(SETUP_SAMPLES // 2)
                ]

            before = setup_samples()
            main_pass = run_worker(base + ["--seconds", str(args.seconds)], args.seed, deadline)
            setups = before + [main_pass] + setup_samples()
            metrics, notes = end_to_end(main_pass, setups)
            record = main_pass
        else:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}"
            traced = run_worker(
                base + ["--seconds", str(args.seconds), "--trace-dir", str(spans)],
                args.seed,
                deadline,
            )
            plain = run_worker(base + ["--count", str(traced["attempted"])], args.seed, deadline)
            metrics = per_layer(traced, plain)
            notes = {
                "spans": str(spans.relative_to(ROOT)),
                "never_called": [k for k, (v, _) in metrics.items() if k.startswith("calls.") and v == 0],
            }
            record = dict(traced, truncated=traced["truncated"] or plain["truncated"])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted, failed = record["attempted"], record["failed"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "planned": record["planned"],
        "truncated": record["truncated"],
        "budgets": record["budgets"],
        "python": record["python"],
        "nproc": record["nproc"],
        "routes": record["routes"],
        "failures": record["failures"],
        "warmup_error": record.get("warmup_error"),
        **notes,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0 and attempted >= 1 and not record["truncated"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps({**result, "info": info}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
