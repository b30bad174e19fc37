"""The A/B tool (``tools/ab_pairs.py``) refuses runs that failed their checks.

``clone`` and ``run_benchmark`` are replaced, so no git or benchmark
subprocess runs: each fake checkout holds the repository's
``BENCHMARK.json`` and each fake run returns a contract line.
"""

from __future__ import annotations

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parents[2]
TOOL = REPO_ROOT / "tools" / "ab_pairs.py"

spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
sys.modules.setdefault("ab_pairs", ab_pairs)
spec.loader.exec_module(ab_pairs)


def contract_line(wall_s: float, **overrides) -> dict:
    """A passing run's contract line, with every end-to-end metric."""
    values = {
        "setup_s": 0.2, "wall_s": wall_s, "updates_per_s": 600 / wall_s,
        "step_p50_ms": 10 * wall_s, "peak_rss_mb": 35.0,
    }  # fmt: skip
    line = {
        "correct": True,
        "attempted": 300,
        "failed": 0,
        "metrics": {name: {"value": value} for name, value in values.items()},
        "exit_code": 0,
    }
    line.update(overrides)
    return line


@pytest.fixture
def fake_runs(monkeypatch):
    """``{(side, workload): [contract lines to return in order]}``."""
    scripted: dict[tuple[str, str], list[dict]] = {}

    def clone(ref: str, into: Path) -> str:
        into.mkdir(parents=True)
        shutil.copy(REPO_ROOT / "BENCHMARK.json", into / "BENCHMARK.json")
        return f"{ref:0<40}"

    def run_benchmark(checkout: Path, workload: str) -> dict:
        return scripted[(checkout.name, workload)].pop(0)

    monkeypatch.setattr(ab_pairs, "clone", clone)
    monkeypatch.setattr(ab_pairs, "run_benchmark", run_benchmark)
    return scripted


def test_passing_runs_print_ratios_and_exit_zero(fake_runs, capsys):
    fake_runs[("parent", "star_sync")] = [contract_line(0.40) for _ in range(3)]
    fake_runs[("change", "star_sync")] = [contract_line(0.30) for _ in range(3)]
    assert ab_pairs.main(["parent", "change", "--workload", "star_sync", "--pairs", "3"]) == 0
    out = capsys.readouterr().out
    assert "== star_sync: 3 alternating pairs" in out
    wall = next(line for line in out.splitlines() if line.strip().startswith("wall_s"))
    assert "0.750x" in wall and wall.endswith("3/3")


@pytest.mark.parametrize(
    "failure",
    [{"exit_code": 1, "correct": False}, {"correct": False}, {"failed": 2}, {"exit_code": 1}],
    ids=["exit-1", "incorrect", "failed-ops", "exit-1-only"],
)
@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_failed_check_names_side_and_workload_and_exits_nonzero(
    fake_runs, capsys, side, failure
):
    for name in ("parent", "change"):
        fake_runs[(name, "fig2_stream")] = [contract_line(0.3) for _ in range(2)]
        fake_runs[(name, "star_sync")] = [contract_line(0.3) for _ in range(2)]
    fake_runs[(side, "star_sync")][1] = contract_line(0.3, **failure)
    argv = ["p", "c", "--workload", "fig2_stream", "--workload", "star_sync", "--pairs", "2"]
    assert ab_pairs.main(argv) == 1
    captured = capsys.readouterr()
    assert f"ab_pairs: {side} failed its checks on star_sync in 1 of 2 runs" in captured.err
    assert captured.err.count("failed its checks") == 1
    assert "== fig2_stream" in captured.out  # the clean workload still reports
    assert "== star_sync" not in captured.out  # no ratios from a wrong answer
