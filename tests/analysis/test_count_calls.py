"""The call-count meter (``tools/count_calls.py``) is exact: two runs of the
same checkout print the same bytes, in call mode and in ``--memory`` mode."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parents[2]
TOOL = REPO_ROOT / "tools" / "count_calls.py"


def count_calls(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *arguments],
        cwd=REPO_ROOT, capture_output=True, text=True, check=False,
    )  # fmt: skip


def test_two_tiny_runs_print_identical_bytes():
    first = count_calls("--workload", "churn_gossip", "--scale", "tiny")
    second = count_calls("--workload", "churn_gossip", "--scale", "tiny")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout

    lines = first.stdout.splitlines()
    assert lines[0] == "workload churn_gossip scale tiny seed 20260928"
    fields = dict(line.split(" ", 1) for line in lines[1:6])
    assert list(fields) == [
        "calls_total", "calls_step_10", "calls_step_50", "calls_step_90", "growth",
    ]  # fmt: skip
    assert int(fields["calls_total"]) > sum(
        int(fields[name]) for name in ("calls_step_10", "calls_step_50", "calls_step_90")
    )
    assert float(fields["growth"]) > 0
    assert lines[6] == "top 20 by ncalls:"
    top = [int(line.split()[0]) for line in lines[7:]]
    assert len(top) == 20 and top == sorted(top, reverse=True)


def test_an_unknown_workload_is_refused():
    done = count_calls("--workload", "no_such_workload", "--scale", "tiny")
    assert done.returncode == 2
    assert "unknown workload" in done.stderr


def test_two_tiny_memory_runs_print_identical_bytes():
    first = count_calls("--workload", "bulk_insert", "--scale", "tiny", "--memory")
    second = count_calls("--workload", "bulk_insert", "--scale", "tiny", "--memory")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout

    lines = first.stdout.splitlines()
    assert lines[0] == "workload bulk_insert scale tiny seed 20260928"
    name, retained = lines[1].split()
    assert name == "retained_bytes" and int(retained) > 0
    name, peak = lines[2].split()
    assert name == "peak_bytes" and int(peak) >= int(retained)
    assert lines[3].startswith("top 15 allocation sites by retained bytes")
    sites = [line.split() for line in lines[4:]]
    assert len(sites) == 15
    sizes = [int(size) for size, _blocks, _site in sites]
    assert sizes == sorted(sizes, reverse=True) and sum(sizes) <= int(retained)
    # Sites are checkout-relative, so the output does not depend on its location.
    assert all(not site.startswith("/") for _size, _blocks, site in sites)
    assert any(site.startswith("src/repro/") for _size, _blocks, site in sites)


def test_a_closed_stdout_ends_the_run_without_a_traceback():
    """``count_calls.py ... | head -1``: the reader leaves before the report
    is written, and the tool stops quietly."""
    done = subprocess.run(
        f"{sys.executable} {TOOL} --workload bulk_insert --scale tiny | head -c 0",
        shell=True, cwd=REPO_ROOT, capture_output=True, text=True, check=False,
    )  # fmt: skip
    assert done.returncode == 0
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr
