"""Peer state: schema, local instance, update log, trust policy, connectivity.

Each participant of the CDSS is a :class:`Peer` holding:

* its local schema and a fully autonomous, editable local instance,
* an update log of locally committed transactions awaiting publication,
* a trust policy used when reconciling,
* connectivity state (peers are intermittently connected), and
* bookkeeping: which transaction produced each local tuple (for antecedent
  inference) and how far the peer has published/reconciled.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from ..errors import PeerError, TransactionError
from ..storage.memory import MemoryInstance
from ..storage.update_log import UpdateLog
from .clock import PeerClockState
from .schema import PeerSchema
from .transactions import Transaction, TransactionBuilder
from .trust import TrustPolicy
from .updates import Update, UpdateKind


class Peer:
    """One CDSS participant.

    Args:
        name: Unique peer name (e.g. ``"Alaska"``).
        schema: The peer's local schema.
        trust: The peer's trust policy; defaults to trusting everyone equally.
        storage: Storage backend for the local instance; defaults to an
            in-memory instance with one relation per schema relation.
    """

    def __init__(
        self,
        name: str,
        schema: PeerSchema,
        trust: Optional[TrustPolicy] = None,
        storage: Optional[MemoryInstance] = None,
    ) -> None:
        if not name:
            raise PeerError("peer name must be non-empty")
        self.name = name
        self.schema = schema
        self.trust = trust or TrustPolicy.trust_all(name)
        if self.trust.owner != name:
            raise PeerError(
                f"trust policy owner {self.trust.owner!r} does not match peer {name!r}"
            )
        self.instance = storage or MemoryInstance()
        for relation in schema:
            self.instance.create_relation(relation.name, relation.arity)
        self.log: UpdateLog[Transaction] = UpdateLog()
        self.clock = PeerClockState()
        self.online = True
        self._txn_counter = itertools.count(1)
        #: Which transaction produced each currently-present local tuple.
        self._producers: dict[tuple[str, tuple], str] = {}

    # -- connectivity -----------------------------------------------------------
    def set_online(self, online: bool) -> None:
        self.online = online

    def require_online(self, operation: str) -> None:
        if not self.online:
            raise PeerError(f"peer {self.name!r} is offline and cannot {operation}")

    # -- local editing ------------------------------------------------------------
    def new_transaction(self, txn_id: Optional[str] = None) -> TransactionBuilder:
        """Start building a local transaction against this peer's instance."""
        identifier = txn_id or f"{self.name}-T{next(self._txn_counter)}"
        return TransactionBuilder(self.name, identifier, producers=self._producers)

    def commit(self, builder_or_transaction: TransactionBuilder | Transaction) -> Transaction:
        """Atomically apply a transaction to the local instance and log it.

        The transaction's updates are validated against the schema first; if
        any update cannot be applied (wrong arity, unknown relation) nothing
        is applied.
        """
        if isinstance(builder_or_transaction, TransactionBuilder):
            transaction = builder_or_transaction.build()
        else:
            transaction = builder_or_transaction
        if transaction.peer != self.name:
            raise TransactionError(
                f"transaction {transaction.txn_id!r} belongs to peer "
                f"{transaction.peer!r}, not {self.name!r}"
            )
        for update in transaction.updates:
            self.schema.validate_tuple(update.relation, update.values)
            if update.old_values is not None:
                self.schema.validate_tuple(update.relation, update.old_values)

        self.apply_updates(transaction.updates, producer=transaction.txn_id)
        self.log.append(transaction)
        return transaction

    def apply_updates(
        self, updates: Iterable[Update], producer: Optional[str] = None
    ) -> None:
        """Apply already-validated updates to the local instance."""
        for update in updates:
            if update.kind is UpdateKind.INSERT:
                self.instance.insert(update.relation, update.values)
                if producer:
                    self._producers[(update.relation, update.values)] = producer
            elif update.kind is UpdateKind.DELETE:
                self.instance.delete(update.relation, update.values)
                self._producers.pop((update.relation, update.values), None)
            else:  # MODIFY
                if update.old_values is not None:
                    self.instance.delete(update.relation, update.old_values)
                    self._producers.pop((update.relation, update.old_values), None)
                self.instance.insert(update.relation, update.values)
                if producer:
                    self._producers[(update.relation, update.values)] = producer

    # -- convenience editing API ---------------------------------------------------
    def insert(self, relation: str, values: Sequence[object]) -> Transaction:
        """Commit a single-insert transaction (convenience wrapper)."""
        return self.commit(self.new_transaction().insert(relation, values))

    def delete(self, relation: str, values: Sequence[object]) -> Transaction:
        """Commit a single-delete transaction (convenience wrapper)."""
        return self.commit(self.new_transaction().delete(relation, values))

    def modify(
        self, relation: str, old_values: Sequence[object], new_values: Sequence[object]
    ) -> Transaction:
        """Commit a single-modification transaction (convenience wrapper)."""
        return self.commit(self.new_transaction().modify(relation, old_values, new_values))

    # -- inspection ------------------------------------------------------------------
    def tuples(self, relation: str) -> frozenset[tuple]:
        """Snapshot of one relation of the local instance."""
        return frozenset(self.instance.scan(relation))

    def tuples_matching(
        self, relation: str, position: int, value: object
    ) -> frozenset[tuple]:
        """Local tuples whose column ``position`` equals ``value``.

        Routed through the storage backend's indexed ``lookup`` — a SQLite
        peer answers through a persistent column index, a memory peer
        through a maintained hash index — instead of materialising the
        whole relation the way :meth:`tuples` does.
        """
        return frozenset(self.instance.lookup(relation, position, value))

    def snapshot(self) -> dict[str, frozenset[tuple]]:
        """Snapshot of the whole local instance (the peer's public view)."""
        return self.instance.snapshot()

    def producer_of(self, relation: str, values: tuple) -> Optional[str]:
        """The transaction that produced a currently-present local tuple."""
        return self._producers.get((relation, tuple(values)))

    def record_producer(self, relation: str, values: tuple, txn_id: str) -> None:
        """Record that an externally applied tuple was produced by ``txn_id``."""
        self._producers[(relation, tuple(values))] = txn_id

    def unpublished_transactions(self) -> list[Transaction]:
        return self.log.unpublished()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "online" if self.online else "offline"
        return f"Peer({self.name}, {status}, {self.instance.count()} tuples)"
