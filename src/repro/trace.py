"""Command-line trace capture for CDSS runs.

Runs a workload with the observability layer forced on and writes the
resulting span tree as Chrome-trace-event JSON (loadable in Perfetto or
``chrome://tracing``)::

    python -m repro.trace --figure2 --out trace.json
    python -m repro.trace --figure2 --metrics
    python -m repro.trace network.spec --seed 7 --out spec-trace.json

``--figure2`` drives the built-in Figure-2 bioinformatics network end to
end — pre-CDSS data import, two sync phases with fresh insertions in
between — over a distributed store with gossip anti-entropy, so the trace
covers the whole span taxonomy: ``sync.round`` > ``publish``/``reconcile``
> ``exchange.stratum`` > ``rule.fire``, plus ``store.quorum_read``/
``store.quorum_write``, ``gossip.session`` and ``sketch.decode``.

Spec paths are built with ``CDSS.from_spec`` (tracing force-installed) and
synchronized once; with no workload data the trace shows the control-flow
skeleton only.

The summary sets the serial virtual time beside the pipelined schedule of
the same syncs (``SyncReport.pipelined`` at its defaults).  Every timestamp
comes from the network's virtual clock, so the same seed always produces
byte-identical output — the determinism test diffs two runs of this
module's entry points directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import ObserveConfig, StoreConfig, SyncConfig, SystemConfig
from .obs import chrome_trace, trace_json, validate_chrome_trace, validate_metric_keys

#: Generator/latency seed shared by every ``--figure2`` invocation.
DEFAULT_SEED = 42


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Run a CDSS workload and export its Chrome-trace-event JSON.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="network spec files to build and synchronize under tracing",
    )
    parser.add_argument(
        "--figure2",
        action="store_true",
        help="run the built-in Figure 2 bioinformatics workload",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the Chrome trace JSON here (default: print a summary only)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the flat metrics snapshot as JSON",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"data-generator and latency seed (default {DEFAULT_SEED})",
    )
    return parser


def run_figure2(seed: int = DEFAULT_SEED, reports: Optional[list] = None):
    """Drive the Figure-2 network under full tracing; returns the CDSS.

    Distributed store + gossip catch-up put every span family on the
    trace; the seeded generator and latency model make the run (and so
    the exported JSON) a pure function of ``seed``.  Each sync report is
    appended to ``reports`` when given.
    """
    from .p2p.network import LatencyModel
    from .workloads.bioinformatics import BioDataGenerator, build_figure2_network

    reports = [] if reports is None else reports
    config = SystemConfig(
        store=StoreConfig(backend="distributed"),
        sync=SyncConfig(mode="gossip"),
        observe=ObserveConfig(mode="trace"),
    )
    network = build_figure2_network(config)
    cdss = network.cdss
    cdss.network.set_latency_model(LatencyModel(seed=seed))

    generator = BioDataGenerator(seed=seed)
    generator.load_sigma1(network.alaska, organisms=4, proteins=5, sequences_per_pair=0.5)
    generator.load_sigma2(network.dresden, pairs=3)
    cdss.import_existing_data(network.alaska.name)
    cdss.import_existing_data(network.dresden.name)
    reports.append(cdss.sync())
    generator.insertion_transactions(network.beijing, count=2, start_index=50)
    reports.append(cdss.sync())
    return cdss


def run_spec(source: str, seed: int = DEFAULT_SEED, reports: Optional[list] = None):
    """Build a spec'd network, force tracing on, and synchronize once
    (appending the report to ``reports`` when given)."""
    from .api.builder import build_network
    from .p2p.network import LatencyModel

    config = SystemConfig(observe=ObserveConfig(mode="trace"))
    cdss = build_network(source, config=config)
    cdss.network.set_latency_model(LatencyModel(seed=seed))
    reports = [] if reports is None else reports
    reports.append(cdss.sync(trace=True))
    return cdss


def virtual_time_summary(cdss, reports) -> str:
    """The serial clock beside the pipelined schedule of the same syncs."""
    runs = [report.pipelined() for report in reports]
    seconds = sum(run["virtual_seconds"] for run in runs)
    stalls = sum(run["backpressure_stalls"] for run in runs)
    return (
        f"virtual time: serial {cdss.network.clock.now:.6f} s, pipelined {seconds:.6f} s "
        f"({stalls} stall(s) at workers 8, queue depth 4)"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.paths and not args.figure2:
        parser.error("nothing to trace: pass at least one spec path or --figure2")
    if len(args.paths) > 1:
        parser.error("trace one spec at a time")
    for path in args.paths:
        if not path.is_file():
            print(f"{path}: no such file", file=sys.stderr)
            return 2

    reports: list = []
    if args.figure2:
        cdss = run_figure2(args.seed, reports)
    else:
        cdss = run_spec(args.paths[0].read_text(encoding="utf-8"), args.seed, reports)

    tracer = cdss.obs.tracer
    payload = chrome_trace(tracer)
    problems = validate_chrome_trace(payload)
    problems += validate_metric_keys(cdss.metrics_snapshot())
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1

    if args.out is not None:
        args.out.write_text(trace_json(tracer) + "\n", encoding="utf-8")
    if args.metrics:
        print(json.dumps(cdss.metrics_snapshot(), indent=2, sort_keys=True))
    else:
        events = payload["traceEvents"]
        names = sorted({event["name"] for event in events})
        destination = args.out if args.out is not None else "(not written; pass --out)"
        print(f"{len(events)} span(s) across {len(names)} span name(s): {', '.join(names)}")
        print(f"trace: {destination}")
        if cdss.network.latency is not None:
            print(virtual_time_summary(cdss, reports))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
