"""Turning per-transaction exchange deltas into candidate transactions.

A :class:`TranslationDelta` says which tuples appeared/disappeared at each
peer because of one published transaction.  :class:`UpdateTranslator` converts
the slice of that delta belonging to one reconciling peer into a
:class:`CandidateTransaction`: the translated updates expressed in the peer's
own schema, carrying the original transaction's identity, origin and
antecedents so that reconciliation can reason about dependencies and trust.

Deletion+insertion pairs on the same key are re-assembled into modifications,
matching the paper's treatment of a modification as an atomic replacement of
one tuple by another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.schema import PeerSchema
from ..core.transactions import Transaction
from ..core.updates import Update
from .engine import TranslationDelta


@dataclass(frozen=True)
class CandidateTransaction:
    """A published transaction translated into one peer's schema.

    Attributes:
        txn_id: Identifier of the original transaction.
        origin: Peer where the original transaction was committed.
        target_peer: The peer whose schema the updates are expressed in.
        updates: Translated updates (insertions, deletions, modifications).
        antecedents: Antecedent transaction ids of the original transaction.
        epoch: Publication epoch of the original transaction.
    """

    txn_id: str
    origin: str
    target_peer: str
    updates: tuple[Update, ...]
    antecedents: frozenset[str] = frozenset()
    epoch: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "updates", tuple(self.updates))
        object.__setattr__(self, "antecedents", frozenset(self.antecedents))

    @property
    def is_empty(self) -> bool:
        """True when the transaction has no effect in the target schema."""
        return not self.updates

    def relations(self) -> set[str]:
        return {update.relation for update in self.updates}

    def describe(self) -> str:
        parts = "; ".join(update.describe() for update in self.updates)
        return f"{self.txn_id} (from {self.origin}) -> {self.target_peer}: [{parts}]"

    def __str__(self) -> str:
        return self.describe()


class UpdateTranslator:
    """Builds candidate transactions for a reconciling peer from exchange deltas."""

    def __init__(self, target_peer: str, schema: PeerSchema) -> None:
        self._target_peer = target_peer
        self._schema = schema

    @property
    def target_peer(self) -> str:
        return self._target_peer

    def translate(
        self, transaction: Transaction, delta: TranslationDelta
    ) -> CandidateTransaction:
        """Translate one published transaction for the target peer."""
        inserted = [
            (relation, values)
            for relation, values in delta.inserted.get(self._target_peer, [])
            if self._schema.has_relation(relation)
        ]
        deleted = [
            (relation, values)
            for relation, values in delta.deleted.get(self._target_peer, [])
            if self._schema.has_relation(relation)
        ]
        updates = self._assemble_updates(inserted, deleted, origin=transaction.peer)
        return CandidateTransaction(
            txn_id=transaction.txn_id,
            origin=transaction.peer,
            target_peer=self._target_peer,
            updates=tuple(updates),
            antecedents=transaction.antecedents,
            epoch=delta.epoch or transaction.epoch,
        )

    # -- helpers -------------------------------------------------------------
    def _assemble_updates(
        self,
        inserted: list[tuple[str, tuple]],
        deleted: list[tuple[str, tuple]],
        origin: str,
    ) -> list[Update]:
        """Pair deletions with insertions on the same key into modifications."""
        updates: list[Update] = []
        remaining_inserts = list(inserted)

        for relation, old_values in deleted:
            relation_schema = self._schema.relation(relation)
            old_key = relation_schema.key_of(old_values)
            match_index: Optional[int] = None
            for index, (candidate_relation, new_values) in enumerate(remaining_inserts):
                if candidate_relation != relation:
                    continue
                if relation_schema.key_of(new_values) == old_key:
                    match_index = index
                    break
            if match_index is not None:
                _, new_values = remaining_inserts.pop(match_index)
                updates.append(
                    Update.modify(relation, old_values, new_values, origin=origin)
                )
            else:
                updates.append(Update.delete(relation, old_values, origin=origin))

        for relation, values in remaining_inserts:
            updates.append(Update.insert(relation, values, origin=origin))
        return updates
