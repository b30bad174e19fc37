"""Transactions and their antecedent dependency graph.

The CDSS treats the *transaction* — a set of tuple-level updates applied
atomically at one peer — as the basic unit of publication, translation and
reconciliation.  Data dependencies between transactions (one transaction
modifies or deletes a tuple inserted by another) induce a dependency graph
that reconciliation must respect: a transaction can only be accepted if its
antecedents are accepted, and must be rejected if any antecedent is rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..errors import TransactionError
from .hashing import stable_hash
from .updates import Update


@dataclass(frozen=True)
class Transaction:
    """An immutable, published transaction.

    Attributes:
        txn_id: Globally unique identifier (assigned by the originating peer).
        peer: The originating peer's name.
        updates: The tuple-level updates, in application order.
        antecedents: Identifiers of transactions this one depends on (it
            reads, modifies or deletes tuples they produced).
        epoch: The logical-clock value at which the transaction was published
            (0 while still unpublished).
    """

    txn_id: str
    peer: str
    updates: tuple[Update, ...]
    antecedents: frozenset[str] = frozenset()
    epoch: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "updates", tuple(self.updates))
        object.__setattr__(self, "antecedents", frozenset(self.antecedents))
        if not self.txn_id:
            raise TransactionError("transactions require a non-empty txn_id")
        if not self.updates:
            raise TransactionError(f"transaction {self.txn_id!r} has no updates")
        if self.txn_id in self.antecedents:
            raise TransactionError(
                f"transaction {self.txn_id!r} cannot be its own antecedent"
            )

    # -- content views ---------------------------------------------------------
    def relations(self) -> set[str]:
        return {update.relation for update in self.updates}

    def inserted_tuples(self) -> list[tuple[str, tuple]]:
        """All ``(relation, tuple)`` pairs this transaction adds."""
        produced = []
        for update in self.updates:
            for values in update.inserted_tuples():
                produced.append((update.relation, values))
        return produced

    def deleted_tuples(self) -> list[tuple[str, tuple]]:
        """All ``(relation, tuple)`` pairs this transaction removes."""
        removed = []
        for update in self.updates:
            for values in update.deleted_tuples():
                removed.append((update.relation, values))
        return removed

    def touched_tuples(self) -> set[tuple[str, tuple]]:
        return set(self.inserted_tuples()) | set(self.deleted_tuples())

    def with_epoch(self, epoch: int) -> "Transaction":
        """Return a copy stamped with the publication epoch."""
        return Transaction(self.txn_id, self.peer, self.updates, self.antecedents, epoch)

    # -- content addressing ------------------------------------------------------
    def content_payload(self) -> tuple:
        """The canonical value this transaction's content digest covers.

        Excludes ``txn_id`` (so ids can be *derived from* the digest) and
        ``epoch`` (assigned later, at publication): the digest identifies
        what the transaction does, not where it ended up in the log.
        """
        return (
            "txn",
            self.peer,
            tuple(
                (str(update.kind.value), update.relation, update.values,
                 update.old_values, update.origin)
                for update in self.updates
            ),
            frozenset(self.antecedents),
        )

    def content_digest(self, seed: int = 0) -> int:
        """Process-stable 64-bit content digest (independent of
        ``PYTHONHASHSEED``; identical across interpreter runs)."""
        return stable_hash(self.content_payload(), seed=seed)

    def describe(self) -> str:
        parts = "; ".join(update.describe() for update in self.updates)
        deps = f" after {sorted(self.antecedents)}" if self.antecedents else ""
        return f"{self.txn_id}@{self.peer}[{parts}]{deps}"

    def __str__(self) -> str:
        return self.describe()


class TransactionBuilder:
    """Accumulates updates made at a peer into a transaction.

    The builder computes the antecedent set automatically: whenever an update
    deletes or modifies a tuple, the builder looks up, in the supplied
    ``producers`` index, which earlier transaction produced that tuple and
    records it as an antecedent.  The index is read at that moment, not
    copied when the builder opens, so a transaction committed meanwhile is
    seen.

    When no explicit ``txn_id`` is given the final id is *content-addressed*:
    ``{peer}-txn-{digest}`` where the digest is the process-stable hash of the
    transaction's content plus a per-process nonce (so two identical-content
    transactions still get distinct ids).  Content-addressed ids are identical
    across interpreter runs — they never depend on builtin ``hash()`` or
    ``PYTHONHASHSEED`` — which the replica placement and reconciliation
    sketches rely on.
    """

    _counter = itertools.count(1)

    def __init__(
        self,
        peer: str,
        txn_id: Optional[str] = None,
        producers: Optional[Mapping[tuple[str, tuple], str]] = None,
    ) -> None:
        self._peer = peer
        self._auto_id = txn_id is None
        self._nonce = next(self._counter)
        self._txn_id = txn_id or f"{peer}-txn-{self._nonce}"
        self._updates: list[Update] = []
        self._antecedents: set[str] = set()
        self._producers = producers if producers is not None else {}

    @property
    def txn_id(self) -> str:
        return self._txn_id

    def _record_dependency(self, relation: str, values: tuple) -> None:
        producer = self._producers.get((relation, tuple(values)))
        if producer is not None and producer != self._txn_id:
            self._antecedents.add(producer)

    def insert(self, relation: str, values: Sequence[object]) -> "TransactionBuilder":
        self._updates.append(Update.insert(relation, values, origin=self._peer))
        return self

    def delete(self, relation: str, values: Sequence[object]) -> "TransactionBuilder":
        self._record_dependency(relation, tuple(values))
        self._updates.append(Update.delete(relation, values, origin=self._peer))
        return self

    def modify(
        self, relation: str, old_values: Sequence[object], new_values: Sequence[object]
    ) -> "TransactionBuilder":
        self._record_dependency(relation, tuple(old_values))
        self._updates.append(
            Update.modify(relation, old_values, new_values, origin=self._peer)
        )
        return self

    def depends_on(self, *txn_ids: str) -> "TransactionBuilder":
        """Explicitly add antecedent transactions."""
        self._antecedents.update(txn_ids)
        return self

    def build(self) -> Transaction:
        transaction = Transaction(
            self._txn_id,
            self._peer,
            tuple(self._updates),
            frozenset(self._antecedents),
        )
        if self._auto_id:
            digest = stable_hash(("txn-id", self._nonce, transaction.content_payload()))
            transaction = Transaction(
                f"{self._peer}-txn-{digest:016x}",
                self._peer,
                transaction.updates,
                transaction.antecedents,
            )
        return transaction
