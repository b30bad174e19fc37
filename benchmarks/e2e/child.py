"""One run of one workload, in a fresh interpreter.

The parent (:mod:`benchmarks.e2e.harness`) spawns this module once per run
so that import cost and peak RSS are per-run.  It sets the workload up,
times its :data:`~benchmarks.e2e.workloads.STEPS` steps in a closed,
single-threaded loop, checks the outputs outside the timed region and
prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import replace
from time import perf_counter_ns

from repro.config import SystemConfig
from repro.core.hashing import stable_hash

from .layers import SpanRecorder, per_layer
from .workloads import STEPS, WORKLOADS


def exchange_digest(cdss) -> str:
    """Digest of the exchange engine's whole database.

    Built on ``hash()``, so it only ties together runs of one interpreter
    under ``PYTHONHASHSEED=0`` -- which is what the harness compares: the run
    that passed the deep check against the runs that skipped it.
    """
    database = cdss.engine.database
    relations = frozenset(
        (predicate, database.relation(predicate)) for predicate in database.predicates()
    )
    return f"{hash(relations) & (2**64 - 1):016x}"


def state_digest(cdss) -> str:
    """Process-stable digest of every peer's instance and decision summary."""
    peers = []
    for name in sorted(cdss.catalog.peer_names()):
        relations = [
            (relation, sorted(repr(row) for row in rows))
            for relation, rows in sorted(cdss.peer_snapshot(name).items())
        ]
        decisions = sorted(cdss.reconciliation_state(name).summary().items())
        peers.append((name, relations, decisions))
    return f"{stable_hash(peers):016x}"


def run(workload_name: str, seed: int, scale: str, traced: bool, provenance: bool,
        deep_check: bool, spawned_at: float) -> dict:
    recorder = None
    if traced:
        recorder = SpanRecorder()
        recorder.install()

    config = SystemConfig.default()
    if not provenance:
        config = replace(config, exchange=replace(config.exchange, track_provenance=False))
    workload_class = WORKLOADS[workload_name]
    setup_start_ns = perf_counter_ns()
    workload = workload_class(seed, workload_class.sizes[scale], config)
    cdss = workload.cdss
    counters_before = cdss.metrics_snapshot()
    clock_before = cdss.network.clock.now
    gc.collect()

    latencies_ns = []
    updates = 0
    failed_steps = 0
    setup_s = time.monotonic() - spawned_at
    timed_start_ns = perf_counter_ns()
    for index in range(STEPS):
        begin = perf_counter_ns()
        try:
            updates += workload.step(index)
        except Exception:  # a failed step is counted and reported; the run goes on
            failed_steps += 1
            traceback.print_exc()
        latencies_ns.append(perf_counter_ns() - begin)
    try:
        workload.finish()
    except Exception:
        failed_steps += 1
        traceback.print_exc()
    timed_end_ns = perf_counter_ns()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    virtual_s = cdss.network.clock.now - clock_before

    counters_after = cdss.metrics_snapshot()

    def moved(counter: str) -> float:
        return counters_after.get(counter, 0) - counters_before.get(counter, 0)

    failures = workload.check(deep_check)
    if failed_steps:
        failures.append(f"{failed_steps} of {STEPS} steps raised or did not converge")
    failed_ops = min(STEPS, failed_steps + len(failures))
    wall_s = (timed_end_ns - timed_start_ns) / 1e9
    latencies_ms = sorted(latency / 1e6 for latency in latencies_ns)
    published = moved("sync.published_transactions")
    result = {
        "workload": workload_name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "provenance": provenance,
        "steps": STEPS,
        "updates": updates,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "updates_per_s": updates / wall_s,
        "step_p50_ms": statistics.median(latencies_ms),
        # Nearest rank: with 100 steps, ten samples lie beyond it.
        "step_p90_ms": latencies_ms[math.ceil(0.9 * STEPS) - 1],
        "peak_rss_mb": peak_rss_mb,
        "wire_kb_per_txn": moved("net.bytes.sent") / 1024 / published if published else 0.0,
        "failed_ops": failed_ops,
        "failed_ops_frac": failed_ops / STEPS,
        "failures": failures,
        "state_digest": state_digest(cdss),
        "exchange_digest": exchange_digest(cdss),
        "layers": None,
    }
    if recorder is not None:
        build_s = recorder.totals(setup_start_ns, timed_start_ns)["api.build_s"]
        result["layers"] = per_layer(
            recorder.totals(timed_start_ns, timed_end_ns),
            build_s,
            moved,
            cdss,
            virtual_s,
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--provenance", type=int, choices=(0, 1), required=True)
    parser.add_argument("--deep-check", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    result = run(
        args.workload, args.seed, args.scale, bool(args.trace), bool(args.provenance),
        bool(args.deep_check), args.spawned_at,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
