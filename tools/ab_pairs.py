#!/usr/bin/env python
"""Interleaved A/B of two commits on the end-to-end benchmark.

The house protocol for a performance claim: clone the parent and the change
into fresh directories, run ``python3 benchmarks/e2e/__main__.py --workload W``
on each in alternating order (so drift of the box hits both sides alike), and
compare the contract lines the benchmark prints.  For every end-to-end metric
of ``BENCHMARK.json`` it reports each side's median and quartiles, the median
of the per-pair ratios ``change / parent`` and in how many pairs the change
read better; a gain is claimed on at least nine wins in ten and a median
difference beyond the parent's interquartile range.  It fails closed: when
any run of a workload failed the benchmark's own checks (exit status 1,
``correct: false`` or failed operations) it prints no ratios for that
workload, names the side, and exits 1.

Usage::

    python tools/ab_pairs.py <parent-ref> <change-ref> --workload star_sync --pairs 10

Both refs are resolved in the repository the tool is run from; uncommitted
changes are not measured.  Each side runs the benchmark of *its own*
checkout.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

SIDES = ("parent", "change")


def git(*arguments: str, cwd: Optional[Path] = None) -> str:
    done = subprocess.run(
        ["git", *arguments], cwd=cwd, check=True, capture_output=True, text=True
    )
    return done.stdout.strip()


def clone(ref: str, into: Path) -> str:
    """Check ``ref`` of the current repository out into a fresh clone;
    returns the commit it names."""
    repository = git("rev-parse", "--show-toplevel")
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}", cwd=Path(repository))
    git("clone", "--quiet", "--no-checkout", repository, str(into))
    git("checkout", "--quiet", "--detach", commit, cwd=into)
    return commit


def run_benchmark(checkout: Path, workload: str) -> dict:
    """One benchmark invocation; returns the contract line it printed, with
    the benchmark's exit status under ``exit_code`` (1: a check failed)."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/__main__.py", "--workload", workload],
        cwd=checkout, capture_output=True, text=True,
    )  # fmt: skip
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(
            f"ab_pairs: the benchmark in {checkout} exited {done.returncode} "
            f"without a contract line\n{done.stderr}"
        )
    return {**json.loads(lines[-1]), "exit_code": done.returncode}


def failed_checks(run: dict) -> bool:
    """Did this run fail one of the benchmark's own correctness checks?"""
    return run["exit_code"] != 0 or not run["correct"] or run["failed"] > 0


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]`` (a single run is all three)."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def report(workload: str, metrics: list[dict], runs: dict[str, list[dict]]) -> None:
    pairs = len(runs["parent"])
    print(f"\n== {workload}: {pairs} alternating pairs (ratio = change / parent) ==")
    print(
        f"   {'metric':<16}{'better':<8}{'parent q1 / median / q3':<34}"
        f"{'change q1 / median / q3':<34}{'median ratio':>12}  wins"
    )
    for metric in metrics:
        name = metric["name"]
        values = {
            side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES
        }
        paired = list(zip(values["parent"], values["change"]))
        ratios = [change / parent if parent else float("nan") for parent, change in paired]
        lower_is_better = metric["better"] == "lower"
        wins = sum(
            (change < parent) if lower_is_better else (change > parent)
            for parent, change in paired
        )
        columns = [
            " / ".join(f"{value:.4g}" for value in quartiles(values[side])) for side in SIDES
        ]
        print(
            f"   {name:<16}{metric['better']:<8}{columns[0]:<34}{columns[1]:<34}"
            f"{statistics.median(ratios):>11.3f}x  {wins}/{pairs}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="ab_pairs.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("change", help="git ref of the change")
    parser.add_argument(
        "--workload", action="append", required=True,
        help="benchmark workload to run (repeatable)",
    )  # fmt: skip
    parser.add_argument("--pairs", type=int, default=10, help="parent/change pairs per workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    status = 0
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as scratch:
        checkouts = {side: Path(scratch) / side for side in SIDES}
        for side in SIDES:
            commit = clone(getattr(args, side), checkouts[side])
            print(f"{side}: {commit[:12]} ({getattr(args, side)})")
        contract = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        for workload in args.workload:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                # Alternate which side goes first.
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_benchmark(checkouts[side], workload))
                print(f"   {workload}: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
            # A run that failed its checks measured a wrong answer: no ratios.
            failed = [
                f"ab_pairs: {side} failed its checks on {workload} in "
                f"{sum(map(failed_checks, runs[side]))} of {args.pairs} runs"
                for side in SIDES
                if any(map(failed_checks, runs[side]))
            ]
            if failed:
                print("\n".join(failed), file=sys.stderr)
                status = 1
            else:
                report(workload, contract["end_to_end"], runs)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
