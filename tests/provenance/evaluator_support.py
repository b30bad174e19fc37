"""The evaluator-based support recheck, kept as the reference of the fixpoint.

:class:`EvaluatorSupportGraph` is a :class:`~repro.provenance.graph.ProvenanceGraph`
whose flush decides the support of each rechecked tuple by evaluating the
tuple's provenance in the Boolean semiring with every variable true, on the
graph's own semiring evaluator.  The cone walk and the order the unsupported
set is kept in are the graph's own, so the two graphs must give the same
answers, in the same order, after any edit sequence.
"""

from __future__ import annotations

from repro.provenance.graph import ProvenanceGraph
from repro.provenance.semiring import BooleanSemiring


def _true(name: str) -> bool:
    return True


class EvaluatorSupportGraph(ProvenanceGraph):
    """A provenance graph that rechecks support with the semiring evaluator."""

    def _rederive(self, recheck: list[int], cone: set[int]) -> set[int]:
        supported = self._evaluator(BooleanSemiring(), _true, _true)
        return {key for key in recheck if not supported(key)}
