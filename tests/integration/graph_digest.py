"""Digest one benchmark workload's provenance graph, in recorded order.

Run as ``python tests/integration/graph_digest.py <workload> [scale]`` from
the checkout root under ``PYTHONHASHSEED=0``.  It builds the workload of
``benchmarks/e2e`` with the benchmark's seed, runs every step and
``finish()``, and prints one line: the workload, then the sha256 of the
graph's ``tuples()`` (relation, values, base flag, variable; in tuple-id
order), of its ``derivations()`` (mapping, target, sources, rule variable;
in the order they were first recorded) and of ``unsupported_tuples()``.

``state_digest`` hashes sorted instances, so it cannot see a change in the
order rules fire; these digests can, because that order assigns the
graph's tuple ids and orders its derivations.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEED = 20260928


def _sha(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(f"{row!r}\n".encode())
    return digest.hexdigest()[:16]


def graph_digests(workload_name: str, scale: str) -> str:
    from benchmarks.e2e.workloads import STEPS, WORKLOADS
    from repro.config import SystemConfig

    workload_class = WORKLOADS[workload_name]
    workload = workload_class(SEED, workload_class.sizes[scale], SystemConfig.default())
    for index in range(STEPS):
        workload.step(index)
    workload.finish()
    graph = workload.cdss.engine.provenance
    tuples = _sha(
        (node.relation, node.values, node.is_base, node.variable) for node in graph.tuples()
    )
    derivations = _sha(
        (node.mapping_id, node.target, node.sources, node.rule_variable)
        for node in graph.derivations()
    )
    unsupported = _sha(graph.unsupported_tuples())
    return f"{workload_name} {tuples} {derivations} {unsupported}"


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    name, scale = sys.argv[1], (sys.argv[2] if len(sys.argv) > 2 else "tiny")
    print(graph_digests(name, scale))
