"""The circuit-based support recheck, kept as the reference of the fixpoint.

:class:`CircuitSupportGraph` is a :class:`~repro.provenance.graph.ProvenanceGraph`
whose flush decides the support of each rechecked tuple the way the graph
once did: compile the tuple's ``N[X]`` circuit root and evaluate it in the
Boolean semiring with every variable true.  The cone walk and the order the
unsupported set is kept in are the graph's own, so the two graphs must give
the same answers, in the same order, after any edit sequence.
"""

from __future__ import annotations

from repro.provenance.graph import ProvenanceGraph
from repro.provenance.semiring import BooleanSemiring


class CircuitSupportGraph(ProvenanceGraph):
    """A provenance graph that rechecks support by evaluating circuits."""

    def _rederive(self, recheck: list[int], cone: set[int]) -> set[int]:
        supported = self.evaluator(BooleanSemiring(), {}, default=True).value
        roots = self._roots
        dead = set()
        for key in recheck:
            root = roots.get(key)
            if root is None:
                root = self._compile_root(key)
            if not supported(root):
                dead.add(key)
        return dead
