"""Datalog evaluation that records semiring provenance.

:func:`evaluate_with_provenance` runs the same compiled semi-naive fixpoint
as :mod:`repro.datalog.evaluation` — both drive the shared execution engine
in :mod:`repro.datalog.executor` — but plugs in a provenance-recording
firing hook: base (EDB) tuples become provenance variables, and each firing
of a rule becomes a derivation hyper-edge from the matched body tuples to
the derived head tuple in a :class:`~repro.provenance.graph.ProvenanceGraph`.
The resulting :class:`ProvenanceDatabase` bundles the derived database with
its provenance graph so that callers can ask for polynomials or evaluate
trust policies afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..provenance.graph import ProvenanceGraph
from ..provenance.graph import default_variable_namer as default_variable_namer
from ..provenance.polynomial import Polynomial
from .ast import Program
from .evaluation import Database
from .executor import ExecutionStats, run_program
from .plan import compile_program


@dataclass
class ProvenanceDatabase:
    """A database plus the provenance graph that justifies its derived tuples."""

    database: Database
    graph: ProvenanceGraph = field(default_factory=ProvenanceGraph)

    def polynomial(
        self,
        relation: str,
        values: tuple,
        max_monomials: Optional[int] = ProvenanceGraph.DEFAULT_EXPANSION_BUDGET,
    ) -> Polynomial:
        """Provenance polynomial of one tuple (a lazy view over the circuit).

        ``max_monomials`` bounds the expansion (``None`` lifts the bound);
        the circuit itself stays compact no matter how large the expanded
        polynomial would be.
        """
        return self.graph.polynomial_for(relation, values, max_monomials=max_monomials)

    def annotation(self, relation: str, values: tuple, semiring, assignment=None, default=None):
        """One tuple's annotation evaluated directly on the provenance DAG."""
        return self.graph.annotation(relation, values, semiring, assignment, default)

    def dag_size(self, relation: str, values: tuple) -> tuple[int, int]:
        """``(nodes, edges)`` of one tuple's hash-consed provenance DAG."""
        return self.graph.dag_size(relation, values)

    def trusted(self, relation: str, values: tuple, trusted_variables: set[str]) -> bool:
        """Is the tuple derivable using only trusted base tuples?"""
        return self.graph.is_derivable(relation, values, trusted_variables)


def record_base_tuples(
    graph: ProvenanceGraph,
    database: Database,
    namer=None,
) -> None:
    # Every tuple present before evaluation is extensional: peers assert
    # facts directly into relations that mappings also derive into, so the
    # IDB/EDB split is per-tuple, not per-predicate.
    for predicate in database.predicates():
        for values in database.relation(predicate):
            graph.record_base(predicate, values, namer and namer(predicate, values))


def evaluate_with_provenance(
    program: Program,
    database: Database,
    graph: Optional[ProvenanceGraph] = None,
    variable_namer=None,
    max_iterations: int = 0,
    stats: Optional[ExecutionStats] = None,
) -> ProvenanceDatabase:
    """Evaluate ``program`` over ``database`` recording provenance.

    Args:
        program: The (stratified) datalog program to evaluate.
        database: Base data; it is not modified.
        graph: An existing provenance graph to extend (used by the incremental
            exchange engine); a fresh one is created when omitted.
        variable_namer: Function ``(relation, values) -> str`` naming the
            provenance variable of each base tuple; when omitted the graph
            gives :func:`default_variable_namer`'s names, rendered when read.
        max_iterations: Optional safety bound on fixpoint rounds per stratum.
        stats: Optional :class:`ExecutionStats` accumulating firing counters.

    Returns:
        A :class:`ProvenanceDatabase` with the full derived database and the
        provenance graph covering every derivation discovered.
    """
    compiled = compile_program(program)
    working = database.copy()
    provenance_graph = graph if graph is not None else ProvenanceGraph()
    record_base_tuples(provenance_graph, working, variable_namer)
    run_program(
        compiled,
        working,
        recorder=provenance_graph.add_derivations,
        stats=stats,
        max_iterations=max_iterations,
    )
    return ProvenanceDatabase(working, provenance_graph)
