"""The incremental update-exchange engine.

The engine owns the compiled mapping program and a single incrementally
maintained database of *published* data: every transaction published anywhere
in the system is processed exactly once, in publication (epoch) order.  For
each processed transaction the engine records a :class:`TranslationDelta` —
exactly which tuples appeared or disappeared in every peer's derived
relations because of that transaction.  Reconciliation later converts these
deltas into candidate transactions for the reconciling peer; the engine
indexes, per peer, the transactions whose delta reaches it, so a reconciling
peer is handed what touches it instead of filtering the whole history.

Provenance is recorded during evaluation (unless disabled), which lets trust
conditions be evaluated over the origin of derived tuples and lets deletions
be propagated precisely (a derived tuple disappears only when it loses *all*
support).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Collection, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Optional

from ..config import ExchangeConfig
from ..core.transactions import Transaction
from ..core.updates import UpdateKind
from ..datalog.ast import Fact, Program
from ..datalog.incremental import IncrementalEngine
from ..errors import PublicationError
from ..obs import Observability
from ..provenance.graph import ProvenanceGraph
from .rules import derived_relation, published_relation, split_derived, is_published_relation


class PeerChanges(Mapping):
    """One side of a :class:`TranslationDelta`: ``peer → [(relation, values)]``.

    The engine adds each relation's change set unsorted, kept as a tuple
    (the engine's set is not held: a tuple is a fraction of its size).  A
    peer's list — every relation's tuples in ``repr`` order, relations in
    the order they were added — is built the first time that peer is read,
    and the unsorted chunks are then dropped, so peers nobody reads (every
    peer of a publish-only run) are never sorted.  Iterating peers and
    counting changes never sort.
    """

    __slots__ = ("_chunks", "_lists", "_sizes")

    def __init__(self) -> None:
        #: Per peer, the ``(relation, rows)`` chunks not yet sorted.
        self._chunks: dict[str, list[tuple[str, tuple[tuple, ...]]]] = {}
        #: Per peer, its sorted list once read.
        self._lists: dict[str, list[tuple[str, tuple]]] = {}
        #: Per peer, its number of changes; also the peers' order.
        self._sizes: dict[str, int] = {}

    def add(self, peer: str, relation: str, rows: Collection[tuple]) -> None:
        """Record that ``rows`` of ``relation`` changed at ``peer``."""
        if rows:
            self._chunks.setdefault(peer, []).append((relation, tuple(rows)))
            self._sizes[peer] = self._sizes.get(peer, 0) + len(rows)

    def count(self, peer: Optional[str] = None) -> int:
        """Changes at ``peer`` (all peers when omitted), without sorting."""
        if peer is None:
            return sum(self._sizes.values())
        return self._sizes.get(peer, 0)

    def __getitem__(self, peer: str) -> list[tuple[str, tuple]]:
        changes = self._lists.get(peer)
        if changes is None:
            chunks = self._chunks.pop(peer)  # KeyError: the peer has no changes
            changes = self._lists[peer] = [
                (relation, values)
                for relation, rows in chunks
                for values in sorted(rows, key=repr)
            ]
        return changes

    def __iter__(self) -> Iterator[str]:
        return iter(self._sizes)

    def __len__(self) -> int:
        return len(self._sizes)


@dataclass
class TranslationDelta:
    """The effect of one published transaction on every peer's derived relations.

    ``inserted``/``deleted`` map a peer name to the list of
    ``(relation, tuple)`` pairs that appeared/disappeared in that peer's
    schema when the transaction was folded into the published state
    (:class:`PeerChanges`, sorted per peer when first read).
    """

    txn_id: str
    origin: str
    epoch: int
    inserted: PeerChanges = field(default_factory=PeerChanges)
    deleted: PeerChanges = field(default_factory=PeerChanges)

    def affected_peers(self) -> set[str]:
        return set(self.inserted) | set(self.deleted)

    def is_empty_for(self, peer: str) -> bool:
        return not self.inserted.count(peer) and not self.deleted.count(peer)

    def touches(self, peer: str) -> bool:
        """Does the transaction bring ``peer`` something it does not already
        have?  Not when it originated there (already applied locally) and
        not when nothing of it reaches the peer's relations."""
        return peer != self.origin and not self.is_empty_for(peer)

    def change_count(self) -> int:
        return self.inserted.count() + self.deleted.count()


class ExchangeEngine:
    """Processes published transactions and records their per-peer deltas."""

    def __init__(
        self,
        program: Program,
        config: Optional[ExchangeConfig] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        self._config = config or ExchangeConfig()
        self._program = program
        self._obs = observability if observability is not None else Observability()
        self._engine = IncrementalEngine(
            program,
            track_provenance=self._config.track_provenance,
            observability=self._obs,
        )
        self._deltas: dict[str, TranslationDelta] = {}
        self._processed_order: list[str] = []
        # Publication epochs parallel to ``_processed_order`` (non-decreasing,
        # as transactions arrive in publication order), for ``since`` counts.
        self._processed_epochs: list[int] = []
        # Per peer, the processed transactions that touch it, in processing
        # order with a parallel epoch list: reconciliation walks only this
        # slice of the history (see :meth:`touching`).
        self._touching: dict[
            str, tuple[list[int], list[tuple[Transaction, TranslationDelta]]]
        ] = {}
        # High-water marks of the executor counters already mirrored into
        # the metrics registry (the ``exchange.*`` series); the executor's
        # ``ExecutionStats`` are cumulative, so each mirror pass adds only
        # the movement since the last one.
        self._mirrored_stats: dict[str, int] = {
            "rules_fired": 0,
            "tuples_derived": 0,
            "rounds": 0,
        }
        # The registry outlives engine rebuilds (CDSS recreates the engine
        # on schema changes); remembering the counters at construction
        # keeps ``statistics()`` scoped to *this* engine's work while the
        # registry stays cumulative system-wide.
        self._registry_baseline: dict[str, float] = {
            name: self._obs.metrics.counter_value(f"exchange.{name}")
            for name in self._mirrored_stats
        }

    # -- accessors ---------------------------------------------------------
    @property
    def program(self) -> Program:
        return self._program

    @property
    def config(self) -> ExchangeConfig:
        return self._config

    @property
    def provenance(self) -> Optional[ProvenanceGraph]:
        return self._engine.graph

    @property
    def database(self):
        """The materialised database of published and derived relations."""
        return self._engine.database

    @property
    def compiled_program(self):
        """The compiled rule plans the engine executes (shared via the plan cache)."""
        return self._engine.compiled

    @property
    def execution_stats(self):
        """Cumulative executor counters (rule firings, derived tuples, rounds)."""
        return self._engine.stats

    @property
    def backend(self):
        """The executor firing the compiled plans."""
        return self._engine.backend

    def reference_database(self):
        """From-scratch recomputation of the derived state (non-mutating).

        Differential-testing oracle: must equal :attr:`database` after any
        stream of processed transactions if incremental maintenance is
        correct.
        """
        return self._engine.reference_database()

    def processed_transactions(self) -> list[str]:
        """Transaction ids in the order they were folded into the engine."""
        return list(self._processed_order)

    def has_processed(self, txn_id: str) -> bool:
        return txn_id in self._deltas

    def delta_for(self, txn_id: str) -> TranslationDelta:
        try:
            return self._deltas[txn_id]
        except KeyError:
            raise PublicationError(
                f"transaction {txn_id!r} has not been processed by the exchange engine"
            ) from None

    def processed_since(self, epoch: int) -> int:
        """How many processed transactions were published strictly after ``epoch``."""
        return len(self._processed_epochs) - bisect_right(self._processed_epochs, epoch)

    def touching(
        self, peer: str, epoch: int
    ) -> list[tuple[Transaction, TranslationDelta]]:
        """The transactions published strictly after ``epoch`` that touch
        ``peer`` (:meth:`TranslationDelta.touches`), in processing order.

        Answered from a per-peer index kept by :meth:`process_transaction`,
        so the cost follows what reaches the peer and not what was published.
        """
        index = self._touching.get(peer)
        if index is None or index[0][-1] <= epoch:
            return []  # Idle past ``epoch``: answered without a search.
        epochs, touching = index
        return touching[bisect_right(epochs, epoch):]

    def derived_tuples(self, peer: str, relation: str) -> frozenset[tuple]:
        """Everything currently derivable in ``relation`` at ``peer``."""
        return self._engine.database.relation(derived_relation(peer, relation))

    def published_tuples(self, peer: str, relation: str) -> frozenset[tuple]:
        """The tuples ``peer`` itself has published for ``relation``."""
        return self._engine.database.relation(published_relation(peer, relation))

    # -- processing -------------------------------------------------------------
    def process_transaction(self, transaction: Transaction) -> TranslationDelta:
        """Fold one published transaction into the engine and record its delta.

        Transactions must be processed in publication order; processing the
        same transaction twice raises :class:`PublicationError`.
        """
        if transaction.txn_id in self._deltas:
            raise PublicationError(
                f"transaction {transaction.txn_id!r} was already processed"
            )

        insert_facts: list[Fact] = []
        delete_facts: list[Fact] = []
        origin = transaction.peer
        for update in transaction.updates:
            relation = published_relation(origin, update.relation)
            if update.kind is UpdateKind.INSERT:
                insert_facts.append(Fact(relation, update.values))
            elif update.kind is UpdateKind.DELETE:
                delete_facts.append(Fact(relation, update.values))
            else:  # MODIFY
                delete_facts.append(Fact(relation, update.old_values or ()))
                insert_facts.append(Fact(relation, update.values))

        inserted = PeerChanges()
        deleted = PeerChanges()

        with self._obs.span(
            "exchange.txn", txn=transaction.txn_id, origin=origin
        ):
            if delete_facts:
                result = self._engine.apply_deletions(delete_facts)
                self._collect(result.deleted, deleted)
            if insert_facts:
                result = self._engine.apply_insertions(insert_facts)
                self._collect(result.inserted, inserted)

        delta = TranslationDelta(
            txn_id=transaction.txn_id,
            origin=origin,
            epoch=transaction.epoch,
            inserted=inserted,
            deleted=deleted,
        )
        self._deltas[transaction.txn_id] = delta
        self._processed_order.append(transaction.txn_id)
        self._processed_epochs.append(delta.epoch)
        for peer in delta.affected_peers():
            if delta.touches(peer):
                epochs, touching = self._touching.setdefault(peer, ([], []))
                epochs.append(delta.epoch)
                touching.append((transaction, delta))
        metrics = self._obs.metrics
        metrics.counter_add("exchange.transactions", 1, label=origin)
        insertions = inserted.count()
        deletions = deleted.count()
        if insertions:
            metrics.counter_add("exchange.delta.insertions", insertions)
        if deletions:
            metrics.counter_add("exchange.delta.deletions", deletions)
        self._mirror_execution_stats()
        return delta

    @staticmethod
    def _collect(changes: dict[str, set[tuple]], accumulator: PeerChanges) -> None:
        """Group engine-level changes (qualified names) by target peer."""
        for qualified, tuples in changes.items():
            if is_published_relation(qualified):
                continue
            peer, relation = split_derived(qualified)
            accumulator.add(peer, relation, tuples)

    # -- full recomputation (ablation baseline) -----------------------------------
    def recompute(self) -> None:
        """Recompute the derived state from scratch (ablation baseline)."""
        self._engine.recompute()

    def _mirror_execution_stats(self) -> None:
        """Fold executor-counter movement into the ``exchange.*`` metrics.

        The executor accounts into one cumulative
        :class:`~repro.datalog.executor.ExecutionStats`; this mirrors the
        movement since the last call into the metrics registry.
        """
        stats = self._engine.stats
        metrics = self._obs.metrics
        mirrored = self._mirrored_stats
        for name in ("rules_fired", "tuples_derived", "rounds"):
            current = getattr(stats, name)
            moved = current - mirrored[name]
            if moved:
                metrics.counter_add(f"exchange.{name}", moved)
                mirrored[name] = current

    def statistics(self) -> dict[str, int]:
        """Engine-level counters used by the benchmarks.

        The executor counters are served from the shared metrics registry
        (the ``exchange.*`` series) — a thin view kept in lockstep with the
        raw :class:`~repro.datalog.executor.ExecutionStats` by
        :meth:`_mirror_execution_stats`.
        """
        graph = self._engine.graph
        tuple_nodes, derivation_nodes = graph.size() if graph is not None else (0, 0)
        self._mirror_execution_stats()
        metrics = self._obs.metrics
        metrics.gauge_set("exchange.database_tuples", len(self._engine.database))
        return {
            "processed_transactions": len(self._processed_order),
            "database_tuples": len(self._engine.database),
            "provenance_tuple_nodes": tuple_nodes,
            "provenance_derivations": derivation_nodes,
            # The graph stores no circuit; the keys stay, at 0, because
            # benchmarks/e2e/layers.py reads them.
            "provenance_circuit_nodes": 0,
            "provenance_circuit_edges": 0,
            "rules_fired": int(
                metrics.counter_value("exchange.rules_fired")
                - self._registry_baseline["rules_fired"]
            ),
            "tuples_derived": int(
                metrics.counter_value("exchange.tuples_derived")
                - self._registry_baseline["tuples_derived"]
            ),
        }
