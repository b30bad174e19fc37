"""The parent process: spawns one fresh interpreter per run and aggregates.

``python -m benchmarks.e2e`` runs every workload three times untraced
(end-to-end metrics, median of the runs) and, with ``--trace``, once more
with the span wrappers installed (per-layer metrics).  It prints every
metric by name with its unit, checks the outputs, stamps each result row and
exits non-zero when a check fails.  The parent never imports the system
under test into a timed path; it only spawns and aggregates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import ROOT
from .layers import PER_LAYER, SELF_TIME, unit_of
from .workloads import STEPS, WORKLOADS

DEFAULT_SEED = 20260928
#: Untraced runs per workload; every end-to-end metric is their median.
REPEATS = 3
#: Upper limit on untraced runs when ``--seconds`` asks for more measuring.
MAX_REPEATS = 6
#: A run that takes longer than this is killed and reported as a failure.
CHILD_TIMEOUT_S = 170

#: (name, unit, better): what a user of the system sees.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("updates_per_s", "1/s", "higher"),
    ("step_p50_ms", "ms", "lower"),
    ("step_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("wire_kb_per_txn", "KB", "lower"),
    ("failed_ops_frac", "ratio", "lower"),
)

CONTRACT_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = Path(__file__).with_name("baseline.json")


class ChildFailed(RuntimeError):
    """A run crashed, timed out or printed no result."""


def run_child(
    workload: str,
    seed: int,
    scale: str = "full",
    traced: bool = False,
    provenance: bool = True,
    deep_check: bool = False,
) -> dict:
    """One run of one workload in a fresh interpreter; returns its result."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload,
        "--seed", str(seed),
        "--scale", scale,
        "--trace", str(int(traced)),
        "--provenance", str(int(provenance)),
        "--deep-check", str(int(deep_check)),
        "--spawned-at", repr(time.monotonic()),
    ]  # fmt: skip
    environment = dict(os.environ, PYTHONHASHSEED="0")
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=environment, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{workload}: run exceeded {CHILD_TIMEOUT_S} s") from error
    if completed.returncode != 0:
        raise ChildFailed(f"{workload}: run exited with status {completed.returncode}")
    try:
        return json.loads(completed.stdout.splitlines()[-1])
    except (IndexError, ValueError) as error:
        raise ChildFailed(f"{workload}: run printed no result") from error


def stamp(seed: int) -> dict:
    """Where and on what a result row was measured."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )  # fmt: skip
        if completed.returncode == 0:
            commit = completed.stdout.strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def recorded_digest(workload: str, seed: int, scale: str) -> Optional[str]:
    """The digest ``baseline.json`` records for this input, if it covers it."""
    baseline = json.loads(BASELINE_PATH.read_text())
    if scale != baseline["scale"] or seed != baseline["seed"]:
        return None
    return baseline["workloads"][workload]["state_digest"]


def measure(
    workload: str, seed: int, seconds: float = 0.0, trace: bool = False, scale: str = "full"
) -> dict:
    """All runs of one workload, aggregated into one stamped result row."""
    # The fastest run so far sets how many runs fill ``seconds``, so that a
    # slow spell of the machine adds runs instead of ending the loop early.
    runs = []
    while len(runs) < REPEATS or (
        not trace
        and len(runs) < MAX_REPEATS
        and len(runs) * min(run["wall_s"] for run in runs) < seconds
    ):
        # The oracles that cost more than a run are checked once; the digests
        # tie the later runs to the verified one.
        runs.append(run_child(workload, seed, scale, deep_check=not runs))

    end_to_end = {}
    for name, unit, _ in END_TO_END:
        values = [run[name] for run in runs]
        end_to_end[name] = {
            "value": statistics.median(values),
            "unit": unit,
            "min": min(values),
            "max": max(values),
            "runs": len(values),
        }
    failures = [failure for run in runs for failure in run["failures"]]
    failed = sum(run["failed_ops"] for run in runs)
    end_to_end["failed_ops_frac"]["value"] = failed / (STEPS * len(runs))

    digest = runs[0]["state_digest"]
    checked = list(runs)
    per_layer = traced_wall_s = None
    if trace:
        traced_run = run_child(workload, seed, scale, traced=True)
        checked.append(traced_run)
        failures.extend(traced_run["failures"])
        untraced_wall = end_to_end["wall_s"]["value"]
        layers = traced_run["layers"]
        layers["bench.trace_overhead_frac"] = traced_run["wall_s"] / untraced_wall - 1
        # Too unsteady on a shared box to carry a bound in BENCHMARK.json, so
        # the contract takes it with the unbounded metrics.
        layers["bench.step_p90_ms"] = end_to_end["step_p90_ms"]["value"]
        if WORKLOADS[workload].provenance_ab:
            # Provenance recording cost by A/B: the same run with recording
            # switched off, against the untraced median.
            plain = run_child(workload, seed, scale, provenance=False)
            failures.extend(plain["failures"])
            layers["provenance.record_s"] = untraced_wall - plain["wall_s"]
        per_layer = {
            name: {"value": layers[name], "unit": unit_of(name)} for name in PER_LAYER
        }
        traced_wall_s = traced_run["wall_s"]
    for key in ("state_digest", "exchange_digest"):
        digests = {run[key] for run in checked}
        if len(digests) > 1:
            failures.append(f"{key} differs between runs of the same seed: {sorted(digests)}")
    expected = recorded_digest(workload, seed, scale)
    if expected is not None and digest != expected:
        failures.append(f"state_digest {digest} differs from the recorded {expected}")

    return {
        "workload": workload,
        "scale": scale,
        "steps": STEPS,
        "updates": runs[0]["updates"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "traced_wall_s": traced_wall_s,
        "state_digest": digest,
        "failures": failures,
        "attempted": STEPS * len(runs),
        "failed": max(failed, len(failures)),
        "stamp": stamp(seed),
    }


def print_row(row: dict) -> None:
    """Every metric of one result row, by name, with unit, count and spread."""
    stamp_ = row["stamp"]
    print(
        f"\n== {row['workload']}  seed={stamp_['seed']}  scale={row['scale']}  "
        f"updates={row['updates']}  digest={row['state_digest']} =="
    )
    print(
        f"   commit={stamp_['commit'][:12]}  python={stamp_['python']}  "
        f"nproc={stamp_['nproc']}  {stamp_['platform']}"
    )
    print(
        f"   {'end-to-end metric':<22}{'unit':<7}{'median':>14}  "
        f"{'spread (min..max)':<30}samples"
    )
    for name, metric in row["end_to_end"].items():
        samples = f"{metric['runs']} runs"
        if name.startswith("step_"):
            samples += f" x {row['steps']} steps"
        spread = f"{metric['min']:.4f}..{metric['max']:.4f}"
        print(f"   {name:<22}{metric['unit']:<7}{metric['value']:>14.4f}  {spread:<30}{samples}")
    if row["per_layer"] is not None:
        wall = row["traced_wall_s"]
        print(
            f"   {'per-layer metric':<34}{'unit':<7}{'value':>16}  "
            f"share of traced wall ({wall:.4f} s)"
        )
        for name, metric in row["per_layer"].items():
            share = f"{metric['value'] / wall:7.1%}" if name in SELF_TIME else ""
            print(f"   {name:<34}{metric['unit']:<7}{metric['value']:>16.6f}  {share}")
    for failure in row["failures"]:
        print(f"   FAILED: {failure}")


def contract_line(row: dict) -> str:
    """The result object of the benchmark contract, for ``BENCHMARK.json``'s driver."""
    contract = json.loads(CONTRACT_PATH.read_text())
    section = "end_to_end" if row["per_layer"] is None else "per_layer"
    metrics = {}
    for entry in contract[section]:
        metric = row[section][entry["name"]]
        metrics[entry["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": not row["failures"],
            "attempted": row["attempted"],
            "failed": row["failed"],
            "metrics": metrics,
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="run only this workload (repeatable; default: all five)",
    )  # fmt: skip
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help=f"keep adding untraced runs beyond the first {REPEATS} until that many of the "
        "fastest run would fill this long",
    )  # fmt: skip
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="add one traced run per workload and report the per-layer metrics",
    )  # fmt: skip
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="per-step sizes: the frozen benchmark sizes, or a seconds-long smoke run",
    )  # fmt: skip
    parser.add_argument("--out", type=Path, help="append every result row to this JSONL file")
    args = parser.parse_args(argv)

    status = 0
    for workload in args.workload or list(WORKLOADS):
        try:
            row = measure(workload, args.seed, args.seconds, bool(args.trace), args.scale)
        except ChildFailed as error:
            print(f"benchmarks.e2e: {error}", file=sys.stderr)
            return 2
        print_row(row)
        if args.out is not None:
            with args.out.open("a", encoding="utf-8") as sink:
                sink.write(json.dumps(row) + "\n")
        print(contract_line(row), flush=True)
        if row["failures"]:
            status = 1
    return status
