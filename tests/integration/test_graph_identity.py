"""The provenance graph a workload records is pinned, ids and order included.

The order rules fire in assigns the graph's tuple ids and orders its
derivations, and ``state_digest`` (sorted instances) cannot see it.  So
``graph_digest.py`` runs two tiny benchmark workloads in a child with
``PYTHONHASHSEED=0`` (set iteration order, and with it firing order,
depends on string hashes) and hashes the graph's ``tuples()`` and
``derivations()`` in order and its ``unsupported_tuples()``.  The digests
below were recorded before the rule plans became generated kernels; a
change to planning or execution must leave them equal.

The digests depend on the interpreter's string hash algorithm, so they are
checked where it is the one they were recorded with (SipHash-1-3, Python
3.11 and later).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = Path(__file__).with_name("graph_digest.py")

#: ``workload -> "tuples derivations unsupported"`` (sha256 prefixes), tiny scale.
RECORDED = {
    "fig2_stream": "1457c4ef5f708a33 f15e45f8c07b0620 d64bd1abec783d6b",
    "bulk_insert": "a50aaa1dcd36388b 1836268a84dc58e9 e3b0c44298fc1c14",
}


@pytest.mark.skipif(
    sys.hash_info.algorithm != "siphash13",
    reason="digests were recorded under SipHash-1-3 string hashing",
)
@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_recorded_graph_is_unchanged(workload):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), workload, "tiny"],
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == [workload, *RECORDED[workload].split()]
