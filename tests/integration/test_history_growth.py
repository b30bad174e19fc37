"""A step costs the same late in a run as early on: the history oracle.

A step of every benchmark workload is a fixed amount of work, so the calls
it makes should not grow with the history before it: a path that rescans
what earlier steps left behind (every transaction, every base tuple) makes
late steps dearer than early ones.  ``tools/count_calls.py`` profiles each
step of a workload in a ``PYTHONHASHSEED=0`` child and prints ``growth``,
the mean calls of steps 80-99 over the mean of steps 10-29; calls are exact,
so the readings are too.

``bulk_insert``, ``bulk_delete`` and ``star_sync`` must read at most
1.05.  ``fig2_stream`` and ``churn_gossip`` grow today for reasons of their
own (the reconciler's shared history, and gossip over a growing store), so
they are pinned at their current readings: a change may lower a pin, but
may not raise a reading past it.  Each pin carries 0.01 of slack for other
interpreter versions, whose call counts differ (3.12 inlines
comprehensions).  ``fig2_stream`` runs at full scale, as tiny scale hides
its growth; ``bulk_insert`` runs at tiny scale, where it is fastest.
"""

from __future__ import annotations

import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "count_calls.py"

#: ``workload -> (scale, the most its growth may read)``, dearest run first.
BOUNDS = {
    "churn_gossip": ("full", 1.120 + 0.01),
    "star_sync": ("full", 1.05),
    "fig2_stream": ("full", 1.059 + 0.01),
    "bulk_insert": ("tiny", 1.05),
    "bulk_delete": ("full", 1.05),
}


def _growth(workload: str) -> float:
    scale, _ = BOUNDS[workload]
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload, "--scale", scale],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    (line,) = [line for line in done.stdout.splitlines() if line.startswith("growth ")]
    return float(line.split()[1])


@pytest.fixture(scope="module")
def readings() -> dict[str, float]:
    # Two children at a time: the five profiled runs take ~12 s one by one.
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(BOUNDS, pool.map(_growth, BOUNDS)))


@pytest.mark.parametrize("workload", sorted(BOUNDS))
def test_late_steps_cost_what_early_steps_cost(readings, workload):
    scale, bound = BOUNDS[workload]
    assert readings[workload] <= bound, (
        f"{workload} ({scale}): steps 80-99 make {readings[workload]:.3f}x the calls "
        f"of steps 10-29 (bound {bound:.3f})"
    )
