#!/usr/bin/env python
"""Count the Python calls one end-to-end workload makes, step by step.

Wall-clock A/B pairs need ten runs a side and still carry the box's noise;
a call count is exact.  This tool builds one workload of ``benchmarks/e2e``
(its constructor is the set-up) and profiles each of its steps, then the
closing ``finish()``, under :mod:`cProfile` in a child interpreter with
``PYTHONHASHSEED=0``, so two runs of the same checkout print the same
bytes.  It prints:

* ``calls_total`` -- every call in the timed region (the steps and
  ``finish()``, not the set-up);
* the calls of steps 10, 50 and 90;
* ``growth`` -- the mean calls of steps 80-99 over the mean of steps 10-29
  (1.0 means a step costs the same late in the run as early on);
* the 20 functions with the most calls over the timed region.

With ``--memory`` it meters memory instead of calls, over the same timed
region and without the profiler: it runs the steps under
:mod:`tracemalloc` and prints

* ``retained_bytes`` -- what the timed region allocated and still holds
  after ``gc.collect()`` at its end;
* ``peak_bytes`` -- the most the timed region held at any moment (the
  :mod:`tracemalloc` peak): transient allocations such as a dict's resize
  or a per-transaction copy move peak RSS but leave ``retained_bytes``;
* the 15 allocation sites (``path:line``, relative to the checkout) that
  hold the most of it, with their block counts.

With ``--protocol`` it fingerprints what the run said on the simulated
network instead, over the whole run (set-up, steps and ``finish()``) and
without the profiler, so a change to how messages are built or accounted
can show that it sends the same messages.  It prints

* ``rows`` and ``rows_sha256`` -- how many ``(sender, receiver, kind,
  size)`` rows reached ``Network.record_messages``, and the sha256 of all
  of them in the order they were recorded;
* ``counters`` and ``counters_sha256`` -- how many ``net.*``, ``gossip.*``
  and ``sketch.*`` counters the run left, and the sha256 of them sorted by
  key;
* the session, sketch-byte, decode-failure and fallback counts, the
  virtual clock and the benchmark's ``state_digest`` of the final state.

Usage::

    python tools/count_calls.py --workload churn_gossip --scale tiny
    python tools/count_calls.py --workload star_sync --scale full
    python tools/count_calls.py --workload bulk_insert --memory
    python tools/count_calls.py --workload churn_gossip --protocol

The workloads module is imported, never modified.  Standard library only.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The steps whose own counts are printed, and the windows ``growth`` compares.
SAMPLED_STEPS = (10, 50, 90)
EARLY = range(10, 30)
LATE = range(80, 100)
TOP = 20
TOP_SITES = 15

#: The benchmark's default seed (``benchmarks/e2e``), so the counts describe
#: the runs ``BENCHMARK.json`` measures.
SEED = 20260928


def _path(filename: str) -> str:
    """``filename`` relative to the checkout (or its bare name outside it),
    so the output does not depend on where the checkout lives."""
    path = Path(filename)
    try:
        return path.resolve().relative_to(ROOT).as_posix()
    except ValueError:
        return path.name


def _calls_by_label(profile: cProfile.Profile) -> Counter:
    """Calls per ``path:line(name)`` label (path relative to the checkout),
    summed over the profiler's raw per-code-object entries.

    :mod:`pstats` keeps one entry per label, and when several code objects
    share one (every dataclass ``__init__`` is ``<string>:2``) the one it
    keeps depends on memory addresses, so its totals vary between runs.
    """
    calls: Counter = Counter()
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin: cProfile names it in full already
            calls[code] += entry.callcount
        else:
            calls[f"{_path(code.co_filename)}:{code.co_firstlineno}({code.co_name})"] += (
                entry.callcount
            )
    return calls


def _set_up(workload_name: str, scale: str):
    """The workload's set-up (its constructor), outside the timed region."""
    from benchmarks.e2e.workloads import WORKLOADS
    from repro.config import SystemConfig

    workload_class = WORKLOADS[workload_name]
    return workload_class(SEED, workload_class.sizes[scale], SystemConfig.default())


def measure_memory(workload_name: str, scale: str) -> list[str]:
    """Trace one workload's timed region; returns the report's lines."""
    from benchmarks.e2e.workloads import STEPS

    workload = _set_up(workload_name, scale)
    gc.collect()
    tracemalloc.start()
    try:
        for index in range(STEPS):
            workload.step(index)
        workload.finish()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    sites = sorted(
        (
            (-stat.size, f"{_path(stat.traceback[0].filename)}:{stat.traceback[0].lineno}",
             stat.count)
            for stat in snapshot.statistics("lineno")
        )
    )  # fmt: skip
    lines = [
        f"workload {workload_name} scale {scale} seed {SEED}",
        f"retained_bytes {retained}",
        f"peak_bytes {peak}",
        f"top {TOP_SITES} allocation sites by retained bytes (bytes, blocks, site):",
    ]
    lines += [f"{-size:>12}  {count:>8}  {site}" for size, site, count in sites[:TOP_SITES]]
    return lines


#: Counter families ``--protocol`` fingerprints: what the network and the
#: reconciliation sessions account.
PROTOCOL_COUNTERS = ("net.", "gossip.", "sketch.")


def measure_protocol(workload_name: str, scale: str) -> list[str]:
    """Run one workload whole, fingerprinting every message row it records;
    returns the report's lines."""
    from benchmarks.e2e.child import state_digest
    from benchmarks.e2e.workloads import STEPS
    from repro.p2p.network import Network

    rows = hashlib.sha256()
    count = 0
    record = Network.record_messages

    def recording(network, batch):
        nonlocal count
        batch = tuple(batch)
        for row in batch:
            rows.update(f"{row!r}\n".encode())
        count += len(batch)
        record(network, batch)

    Network.record_messages = recording
    try:
        workload = _set_up(workload_name, scale)
        for index in range(STEPS):
            workload.step(index)
        workload.finish()
    finally:
        Network.record_messages = record
    cdss = workload.cdss
    counters = sorted(
        (key, value)
        for key, value in cdss.obs.metrics.snapshot().items()
        if key.startswith(PROTOCOL_COUNTERS)
    )
    value = dict(counters).get
    return [
        f"workload {workload_name} scale {scale} seed {SEED}",
        f"rows {count}",
        f"rows_sha256 {rows.hexdigest()}",
        f"counters {len(counters)}",
        f"counters_sha256 {hashlib.sha256(repr(counters).encode()).hexdigest()}",
        f"sessions {value('gossip.sessions', 0)}",
        f"sessions_unchanged {value('gossip.sessions_unchanged', 0)}",
        f"sketch_bytes {value('gossip.bytes_sketch', 0)}",
        f"decode_failures {value('sketch.decode.failures', 0)}",
        f"fallbacks {value('gossip.fallbacks', 0)}",
        f"virtual_clock_s {cdss.network.clock.now:.3f}",
        f"state_digest {state_digest(cdss)}",
    ]


def measure(workload_name: str, scale: str) -> list[str]:
    """Profile one workload's steps; returns the report's lines."""
    from benchmarks.e2e.workloads import STEPS

    workload = _set_up(workload_name, scale)

    per_step: list[int] = []
    totals: Counter = Counter()
    for index in range(STEPS + 1):
        profile = cProfile.Profile()
        profile.enable()
        if index < STEPS:
            workload.step(index)
        else:
            workload.finish()
        profile.disable()
        calls = _calls_by_label(profile)
        if index < STEPS:
            per_step.append(sum(calls.values()))
        totals.update(calls)

    def mean(steps: range) -> float:
        return sum(per_step[index] for index in steps) / len(steps)

    lines = [
        f"workload {workload_name} scale {scale} seed {SEED}",
        f"calls_total {sum(totals.values())}",
    ]
    lines += [f"calls_step_{index} {per_step[index]}" for index in SAMPLED_STEPS]
    lines.append(f"growth {mean(LATE) / mean(EARLY):.3f}")
    ranked = sorted(((calls, label) for label, calls in totals.items()),
                    key=lambda row: (-row[0], row[1]))  # fmt: skip
    lines.append(f"top {TOP} by ncalls:")
    lines += [f"{calls:>10}  {label}" for calls, label in ranked[:TOP]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python tools/count_calls.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--memory", action="store_true",
        help="report retained and peak bytes and the top allocation sites instead of calls",
    )  # fmt: skip
    parser.add_argument(
        "--protocol", action="store_true",
        help="fingerprint the message rows, the traffic counters and the final state instead",
    )  # fmt: skip
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.memory and args.protocol:
        parser.error("--memory and --protocol are separate reports; pass one")

    if not args.child:
        # The counts depend on set and dict iteration orders of strings, so
        # they are taken in a fresh interpreter with a fixed hash seed.
        environment = dict(os.environ, PYTHONHASHSEED="0")
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--child",
                "--workload", args.workload, "--scale", args.scale,
                *(["--memory"] if args.memory else []),
                *(["--protocol"] if args.protocol else []),
            ],
            env=environment, cwd=ROOT,
        )  # fmt: skip
        return done.returncode

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    if args.protocol:
        report = measure_protocol(args.workload, args.scale)
    else:
        report = (measure_memory if args.memory else measure)(args.workload, args.scale)
    try:
        print("\n".join(report), flush=True)
    except BrokenPipeError:
        # The reader went away (``| head``): stop without a traceback, and
        # point stdout at devnull so the interpreter's final flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
