"""Structured tracing and metrics over a synchronization run.

Runs the Figure-2 bioinformatics network with the observability layer on:
``observe trace`` in the spec (or ``ObserveConfig(mode="trace")``)
installs a deterministic span tracer whose timestamps come from the
network's virtual clock — the same seed always produces byte-identical
trace JSON.  The trace nests ``sync.round`` over ``publish``/``reconcile``
over ``exchange.stratum``/``rule.fire``, alongside the store's quorum I/O
and the gossip layer's sessions and sketch decodes.

The exported file is Chrome-trace-event JSON: open it at
https://ui.perfetto.dev (or ``chrome://tracing``) to see the nested spans
on a timeline.  The flat metrics registry rides along — per-sync deltas in
``report.metrics``, the cumulative snapshot via ``cdss.metrics_snapshot()``.

Run with:  python examples/trace_sync.py
"""

from __future__ import annotations

import json
from collections import Counter

from repro.trace import run_figure2


def main() -> None:
    # One call drives the whole traced workload: distributed store, gossip
    # catch-up, two sync phases with fresh insertions in between.
    cdss = run_figure2(seed=42)

    # The tracer's events are already Chrome-trace shaped; write_trace
    # serializes them canonically (sorted keys, fixed separators).
    cdss.write_trace("figure2-trace.json")
    events = cdss.trace_events()
    by_name = Counter(event["name"] for event in events)
    print(f"wrote figure2-trace.json ({len(events)} spans)")
    for name, count in sorted(by_name.items()):
        print(f"  {name:<22} x{count}")
    print("open it at https://ui.perfetto.dev to see the timeline\n")

    # The metrics registry is always on alongside the tracer; the snapshot
    # is a flat dict of dotted-lowercase keys (label series in brackets).
    snapshot = cdss.metrics_snapshot()
    interesting = (
        "sync.rounds",
        "exchange.rules_fired",
        "exchange.tuples_derived",
        "gossip.sessions",
        "net.bytes.sent",
        "store.quorum.writes",
    )
    print("selected metrics:")
    print(json.dumps({key: snapshot[key] for key in interesting if key in snapshot},
                     indent=2, sort_keys=True))

    # Per-sync deltas appear on the report whenever observability is on.
    report = cdss.sync()
    print(f"\nanother sync converged in {report.round_count} round(s); "
          f"its own metrics delta has {len(report.metrics or {})} entries")


if __name__ == "__main__":
    main()
