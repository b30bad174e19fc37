"""Incremental maintenance of datalog-derived relations.

The update-exchange engine must keep each peer's derived instance (and its
provenance) up to date as new transactions arrive, without recomputing from
scratch.  This module implements:

* **insertion propagation** — the standard delta-rule/semi-naive approach:
  a batch of new base facts is treated as the initial delta and propagated to
  fixpoint;
* **deletion propagation** — two strategies:

  - *provenance-based* (the ORCHESTRA approach): base deletions demote the
    corresponding provenance-graph nodes, after which every derived tuple
    that has lost all support is removed — the graph re-evaluates only the
    downstream cone of the demoted nodes and reports what newly died;
  - *DRed* (delete-and-rederive): over-delete everything potentially
    depending on the deleted facts, then re-derive what still has an
    alternative derivation.  Used as the non-provenance ablation baseline.

Both paths fire rules through the executor
(:class:`~repro.datalog.executor.PythonExecutionBackend`): the program is
compiled to rule kernels once at engine construction (cached by structural
identity, so every engine over the same mapping program shares the plans),
and provenance recording is just a different firing hook on the same plans.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import DatalogError
from ..provenance.graph import ProvenanceGraph
from .ast import Fact, Program
from .evaluation import Database, evaluate_program
from .executor import ExecutionStats, PythonExecutionBackend
from .plan import CompiledProgram, compile_program, evict_program
from .provenance_eval import ProvenanceDatabase, evaluate_with_provenance, record_base_tuples


@dataclass
class MaintenanceResult:
    """Summary of one incremental maintenance step."""

    inserted: dict[str, set[tuple]]
    deleted: dict[str, set[tuple]]

    @property
    def inserted_count(self) -> int:
        return sum(len(values) for values in self.inserted.values())

    @property
    def deleted_count(self) -> int:
        return sum(len(values) for values in self.deleted.values())


class IncrementalEngine:
    """Maintains the fixpoint of a datalog program under base-fact changes.

    The engine owns a :class:`Database` holding base and derived tuples, an
    optional :class:`ProvenanceGraph`, and the program whose fixpoint is being
    maintained.  ``apply_insertions``/``apply_deletions`` update the database
    in place and report exactly which derived tuples changed.  ``backend``
    substitutes the executor object (tests pass instrumented subclasses of
    :class:`PythonExecutionBackend`).  ``variable_namer`` names base tuples'
    provenance variables as in
    :func:`~repro.datalog.provenance_eval.evaluate_with_provenance`.
    """

    def __init__(
        self,
        program: Program,
        database: Optional[Database] = None,
        track_provenance: bool = True,
        variable_namer=None,
        backend: Optional[PythonExecutionBackend] = None,
        observability=None,
    ) -> None:
        self._program = program
        self._backend = backend if backend is not None else PythonExecutionBackend()
        # The backend carries the shared observability holder as an instance
        # attribute (rather than widening its call signatures); it re-reads
        # ``observability.tracer`` at fire time, so tracers installed after
        # construction are picked up.
        if observability is not None:
            self._backend.observability = observability
        self._observability = observability
        self._compiled: CompiledProgram = compile_program(program)
        self._compiled_key: tuple = tuple(program.rules)
        self._track_provenance = track_provenance
        self._variable_namer = variable_namer
        self._graph: Optional[ProvenanceGraph] = (
            ProvenanceGraph() if track_provenance else None
        )
        if self._graph is not None and observability is not None:
            self._graph.observability = observability
        self._database = Database()
        self._database.ensure_indexes(self._compiled.demanded_indexes)
        self._base = Database()
        self._stats = ExecutionStats()
        if database is not None:
            self.apply_insertions(
                Fact(predicate, values)
                for predicate in database.predicates()
                for values in database.relation(predicate)
            )

    # -- accessors ----------------------------------------------------------
    @property
    def database(self) -> Database:
        """The current materialised database (base plus derived tuples)."""
        return self._database

    @property
    def base(self) -> Database:
        """Only the base (extensional) tuples currently asserted."""
        return self._base

    @property
    def graph(self) -> Optional[ProvenanceGraph]:
        return self._graph

    @property
    def program(self) -> Program:
        return self._program

    @property
    def compiled(self) -> CompiledProgram:
        """The compiled rule plans this engine executes.

        ``Program`` is deliberately mutable (rules can be added after
        construction), so the compilation is refreshed whenever the rule
        list changed — matching the pre-compilation behavior of
        re-deriving strata on every propagation.  Unchanged programs pay
        only a tuple comparison.
        """
        key = tuple(self._program.rules)
        if key != self._compiled_key:
            # Schema change: the program this engine maintains gained or lost
            # rules (possibly re-registering a predicate at a new arity).
            # Evict the superseded structure's cache entry defensively so an
            # eviction-churned cache can never rotate the stale compilation
            # back in for this engine's old key.
            evict_program(self._compiled_key)
            self._compiled = compile_program(self._program)
            self._compiled_key = key
            self._database.ensure_indexes(self._compiled.demanded_indexes)
        return self._compiled

    @property
    def stats(self) -> ExecutionStats:
        """Cumulative executor counters (rule firings across all maintenance)."""
        return self._stats

    @property
    def backend(self) -> PythonExecutionBackend:
        """The executor firing this engine's compiled plans."""
        return self._backend

    def provenance(self) -> ProvenanceDatabase:
        if self._graph is None:
            raise DatalogError("provenance tracking is disabled for this engine")
        return ProvenanceDatabase(self._database, self._graph)

    # -- insertions ----------------------------------------------------------
    def apply_insertions(self, facts: Iterable[Fact]) -> MaintenanceResult:
        """Insert base facts and propagate them through the program."""
        inserted: dict[str, set[tuple]] = defaultdict(set)
        delta: dict[str, set[tuple]] = defaultdict(set)
        namer = self._variable_namer

        for fact in facts:
            # Facts may be asserted into relations that mappings also derive
            # into; the base/derived distinction is per-tuple (tracked by
            # ``self._base`` and the provenance graph), not per-predicate.
            if self._base.add(fact.predicate, fact.values):
                if self._database.add(fact.predicate, fact.values):
                    delta[fact.predicate].add(fact.values)
                    inserted[fact.predicate].add(fact.values)
                if self._graph is not None:
                    self._graph.record_base(
                        fact.predicate, fact.values, namer and namer(fact.predicate, fact.values)
                    )

        if not delta:
            return MaintenanceResult({}, {})

        self._propagate_insertions(delta, inserted)
        return MaintenanceResult(dict(inserted), {})

    def _propagate_insertions(
        self, delta: dict[str, set[tuple]], inserted: dict[str, set[tuple]]
    ) -> None:
        """Semi-naive propagation of a batch of new tuples across all strata."""
        recorder = self._graph.add_derivations if self._graph is not None else None
        derived = self._backend.propagate(
            self.compiled, self._database, delta, recorder=recorder, stats=self._stats
        )
        for predicate, values in derived.items():
            inserted[predicate].update(values)

    # -- deletions -------------------------------------------------------------
    def apply_deletions(self, facts: Iterable[Fact]) -> MaintenanceResult:
        """Delete base facts and remove derived tuples that lost all support."""
        removed_base: dict[str, set[tuple]] = defaultdict(set)
        for fact in facts:
            if self._base.remove(fact.predicate, fact.values):
                removed_base[fact.predicate].add(fact.values)

        if not removed_base:
            return MaintenanceResult({}, {})

        if self._graph is not None:
            deleted = self._delete_with_provenance(removed_base)
        else:
            deleted = self._delete_with_dred(removed_base)
        return MaintenanceResult({}, deleted)

    def _delete_with_provenance(
        self, removed_base: dict[str, set[tuple]]
    ) -> dict[str, set[tuple]]:
        """Demote the removed base tuples and drop what lost all support.

        Only the tuples that became unsupported through this call are
        touched: tuples that died earlier stay in the graph but left the
        database then.  A removed base tuple that is still derivable through
        mappings keeps its support and stays.
        """
        assert self._graph is not None
        mark = self._graph.support_mark()
        for predicate, values_set in removed_base.items():
            for values in values_set:
                self._graph.remove_base_tuple(predicate, values)

        deleted: dict[str, set[tuple]] = defaultdict(set)
        for relation, values in self._graph.unsupported_tuples(since=mark):
            if self._database.remove(relation, values):
                deleted[relation].add(values)
        return dict(deleted)

    def _delete_with_dred(
        self, removed_base: dict[str, set[tuple]]
    ) -> dict[str, set[tuple]]:
        """Delete-and-rederive without provenance (the ablation baseline)."""
        # Over-delete: remove the base facts and anything transitively
        # derivable from them, then recompute the fixpoint from the remaining
        # base facts and re-insert what is still derivable.
        for predicate, values_set in removed_base.items():
            for values in values_set:
                self._database.remove(predicate, values)

        before = self._database.copy()
        recomputed = self._fixpoint()
        deleted: dict[str, set[tuple]] = defaultdict(set)
        for predicate in before.predicates():
            for values in before.relation(predicate):
                if not recomputed.contains(predicate, values):
                    deleted[predicate].add(values)
        for predicate, values_set in removed_base.items():
            for values in values_set:
                if not recomputed.contains(predicate, values):
                    deleted[predicate].add(values)
        self._database = recomputed
        return dict(deleted)

    def reference_database(self) -> Database:
        """Recompute the fixpoint from scratch without touching engine state.

        Differential-testing oracle: if incremental maintenance is correct,
        the returned database equals :attr:`database` after any sequence of
        ``apply_insertions``/``apply_deletions`` calls.  Provenance-tracking
        engines recompute through :func:`evaluate_with_provenance` (on a
        throwaway graph), independent of this engine's backend object, so
        the oracle exercises the same recording hook :meth:`recompute` uses.
        """
        if self._graph is not None:
            return evaluate_with_provenance(
                self._program,
                self._base,
                graph=ProvenanceGraph(),
                variable_namer=self._variable_namer,
            ).database
        return evaluate_program(self._program, self._base, copy=True)

    # -- full recomputation (ablation baseline) --------------------------------
    def recompute(self) -> Database:
        """Recompute the fixpoint from scratch (used for ablation benchmarks)."""
        if self._graph is not None:
            self._graph = ProvenanceGraph()
            if self._observability is not None:
                self._graph.observability = self._observability
        self._database = self._fixpoint(self._graph)
        return self._database

    def _fixpoint(self, graph: Optional[ProvenanceGraph] = None) -> Database:
        """Evaluate the program from scratch over a copy of the base facts.

        Fires through this engine's backend (so tracing and instrumented
        backends see the rules) and, given a ``graph``, records the base
        tuples and every derivation into it.
        """
        working = self._base.copy()
        recorder = None
        if graph is not None:
            record_base_tuples(graph, working, self._variable_namer)
            recorder = graph.add_derivations
        self._backend.run_program(
            self.compiled, working, recorder=recorder, stats=self._stats
        )
        return working


def full_recompute(program: Program, base: Database) -> Database:
    """Convenience helper: evaluate the program from scratch over ``base``."""
    return evaluate_program(program, base, copy=True)
