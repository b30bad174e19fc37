"""The fresh-rebuild oracle of the provenance-graph tests.

:func:`merge_graphs` replays graphs' current tuples and derivations into a
new :class:`~repro.provenance.graph.ProvenanceGraph`, whose circuit store,
roots and memo tables start cold.  A graph maintained incrementally must
answer every question exactly as its rebuild does.
"""

from __future__ import annotations

from typing import Iterable

from repro.provenance.graph import ProvenanceGraph


def merge_graphs(graphs: Iterable[ProvenanceGraph]) -> ProvenanceGraph:
    """Union several provenance graphs into a new one."""
    merged = ProvenanceGraph()
    for graph in graphs:
        for node in graph.tuples():
            if node.is_base:
                merged.add_base_tuple(node.relation, node.values, node.variable)
            else:
                merged.add_derived_tuple(node.relation, node.values)
        for derivation in graph.derivations():
            merged.add_derivation(
                derivation.mapping_id,
                derivation.target,
                derivation.sources,
                derivation.rule_variable,
            )
    return merged
