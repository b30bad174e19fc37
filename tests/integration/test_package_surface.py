"""Every ``repro`` module imports and every example runs.

A deleted name that a module still imports, or that an example still calls,
fails here in tier-1 rather than in a later CI step.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
MODULES = sorted(
    module.name for module in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def test_the_walk_finds_every_module_file():
    source = ROOT / "src"
    files = {
        ".".join(path.relative_to(source).with_suffix("").parts).removesuffix(".__init__")
        for path in (source / "repro").rglob("*.py")
    }
    assert {"repro", *MODULES} == files


#: Output lines pinned per example: the traffic and churn figures they read
#: from the metrics registry.  Both outputs are the same under any
#: ``PYTHONHASHSEED``.
GOLDEN_LINES = {
    "gossip_catchup": [
        "  gossip rounds       : 0",
        "  sessions / messages : 3 / 24",
        "  entries delivered   : 36",
        "  total bytes moved   : 6525",
        "  archive's share     : 6525 of 6525 bytes",
        "  Aarhus     received 3195 B in 17 messages",
        "  Bergen     received 2264 B in 11 messages",
        "  Cadiz      received 3704 B in 14 messages",
        "  sketch session      : 2308 B (700 B sketches + 1416 B entries)",
    ],
    "distributed_store": ["Connectivity churn: 2 events"],
}


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(path, tmp_path):
    # Examples may write files (trace_sync.py writes its trace into the
    # working directory), so each runs in a fresh one.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    printed = completed.stdout.splitlines()
    for line in GOLDEN_LINES.get(path.stem, ()):
        assert line in printed, line
