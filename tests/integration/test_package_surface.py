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
