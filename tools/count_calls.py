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

Usage::

    python tools/count_calls.py --workload churn_gossip --scale tiny
    python tools/count_calls.py --workload star_sync --scale full

The workloads module is imported, never modified.  Standard library only.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The steps whose own counts are printed, and the windows ``growth`` compares.
SAMPLED_STEPS = (10, 50, 90)
EARLY = range(10, 30)
LATE = range(80, 100)
TOP = 20

#: The benchmark's default seed (``benchmarks/e2e``), so the counts describe
#: the runs ``BENCHMARK.json`` measures.
SEED = 20260928


def _label(function: tuple[str, int, str]) -> str:
    """``path:line(name)`` with the path relative to the checkout, so the
    output does not depend on where the checkout lives."""
    filename, line, name = function
    if filename == "~":  # a builtin: cProfile names it in full already
        return name
    path = Path(filename)
    try:
        filename = path.resolve().relative_to(ROOT).as_posix()
    except ValueError:
        filename = path.name
    return f"{filename}:{line}({name})"


def measure(workload_name: str, scale: str) -> list[str]:
    """Profile one workload's steps; returns the report's lines."""
    from benchmarks.e2e.workloads import STEPS, WORKLOADS
    from repro.config import SystemConfig

    workload_class = WORKLOADS[workload_name]
    workload = workload_class(SEED, workload_class.sizes[scale], SystemConfig.default())

    per_step: list[int] = []
    totals: pstats.Stats | None = None
    for index in range(STEPS + 1):
        profile = cProfile.Profile()
        profile.enable()
        if index < STEPS:
            workload.step(index)
        else:
            workload.finish()
        profile.disable()
        stats = pstats.Stats(profile)
        if index < STEPS:
            per_step.append(stats.total_calls)  # type: ignore[attr-defined]
        if totals is None:
            totals = stats
        else:
            totals.add(stats)
    assert totals is not None

    def mean(steps: range) -> float:
        return sum(per_step[index] for index in steps) / len(steps)

    lines = [
        f"workload {workload_name} scale {scale} seed {SEED}",
        f"calls_total {totals.total_calls}",  # type: ignore[attr-defined]
    ]
    lines += [f"calls_step_{index} {per_step[index]}" for index in SAMPLED_STEPS]
    lines.append(f"growth {mean(LATE) / mean(EARLY):.3f}")
    ranked = sorted(
        (
            (calls, _label(function))
            for function, (_, calls, _, _, _) in totals.stats.items()  # type: ignore[attr-defined]
        ),
        key=lambda row: (-row[0], row[1]),
    )
    lines.append(f"top {TOP} by ncalls:")
    lines += [f"{calls:>10}  {label}" for calls, label in ranked[:TOP]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python tools/count_calls.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not args.child:
        # The counts depend on set and dict iteration orders of strings, so
        # they are taken in a fresh interpreter with a fixed hash seed.
        environment = dict(os.environ, PYTHONHASHSEED="0")
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--child",
                "--workload", args.workload, "--scale", args.scale,
            ],
            env=environment, cwd=ROOT,
        )  # fmt: skip
        return done.returncode

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    print("\n".join(measure(args.workload, args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
