"""Per-peer reconciliation state: the decision history.

Each peer remembers, across reconciliations, which transactions it has
accepted, rejected or deferred, which updates the accepted transactions
applied (needed for conflict checks against later candidates), and which
deferred conflicts are awaiting manual resolution.

Only transactions that *touch* the peer get a stored row.  A transaction the
peer was offered that changes nothing there — it originated at the peer, or
its translation is empty in the peer's schema — is accepted by a *rule*
(:attr:`ReconciliationState.implicit_rule`, supplied by the owner of the
exchange deltas) and merely counted, so the table is bounded by what reaches
the peer and not by what the network publishes.  Every reader of
:meth:`~ReconciliationState.decision` sees such a transaction as
``ACCEPTED``; a state created without a rule stores every decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, Optional

from ..core.schema import PeerSchema
from ..core.updates import Update
from ..errors import ReconciliationError
from ..exchange.translation import CandidateTransaction
from .conflicts import ConflictKey, conflict_key


class Decision(str, Enum):
    """The possible outcomes for a candidate transaction at one peer."""

    ACCEPTED = "accepted"
    REJECTED = "rejected"
    DEFERRED = "deferred"
    PENDING = "pending"


@dataclass
class DeferredConflict:
    """A set of equal-priority, mutually conflicting transactions awaiting
    a decision by the site administrator."""

    conflict_id: int
    txn_ids: frozenset[str]
    priority: int
    resolved: bool = False
    winner: Optional[str] = None


@dataclass
class ReconciliationState:
    """Everything one peer remembers between reconciliations."""

    peer: str
    decisions: dict[str, Decision] = field(default_factory=dict)
    #: Updates applied by accepted transactions, used for conflict detection
    #: against future candidates (keyed by txn id).
    accepted_updates: dict[str, tuple[Update, ...]] = field(default_factory=dict)
    #: Candidates not yet decided (deferred or waiting for antecedents),
    #: re-considered on every subsequent reconciliation.
    undecided: dict[str, CandidateTransaction] = field(default_factory=dict)
    deferred_conflicts: list[DeferredConflict] = field(default_factory=list)
    _conflict_counter: int = 0
    #: Ids whose decision is currently DEFERRED, kept by the ``record_*``
    #: methods so each reconciliation reads them without a history scan.
    _deferred: set[str] = field(default_factory=set, repr=False)
    #: ``accepted_updates`` bucketed by conflict key under ``_index_schema``;
    #: accepts not yet bucketed wait in ``_index_backlog`` (see
    #: :meth:`accepted_by_key`).
    _index: dict[ConflictKey, list[tuple[str, Update]]] = field(
        default_factory=dict, repr=False
    )
    _index_backlog: list[str] = field(default_factory=list, repr=False)
    _index_schema: Optional[PeerSchema] = field(default=None, repr=False)
    #: "Offered, and nothing in it for this peer": answers for a transaction
    #: without a stored row whether it is accepted all the same.
    implicit_rule: Optional[Callable[[str], bool]] = field(
        default=None, repr=False, compare=False
    )
    #: How many transactions ``implicit_rule`` holds for.  Whoever offers
    #: the transactions keeps the count, so :meth:`summary` need not
    #: enumerate them.
    implicit_accepts: int = 0

    # -- decision bookkeeping ------------------------------------------------
    def decision(self, txn_id: str) -> Decision:
        decision = self.decisions.get(txn_id)
        if decision is not None:
            return decision
        if self.implicit_rule is not None and self.implicit_rule(txn_id):
            return Decision.ACCEPTED
        return Decision.PENDING

    def store_implicit(self, txn_ids: Iterable[str]) -> None:
        """Turn the implicit accepts among ``txn_ids`` into stored rows.

        For the moment before the rule's inputs change (the exchange engine
        is about to be rebuilt under new mappings): what a peer has accepted
        stays accepted, whatever the transaction translates to afterwards.
        """
        if self.implicit_rule is None:
            return
        for txn_id in txn_ids:
            if txn_id not in self.decisions and self.implicit_rule(txn_id):
                self.decisions[txn_id] = Decision.ACCEPTED
                self.implicit_accepts -= 1

    def is_decided(self, txn_id: str) -> bool:
        return self.decision(txn_id) in (Decision.ACCEPTED, Decision.REJECTED)

    def record_accept(self, candidate: CandidateTransaction) -> None:
        self.decisions[candidate.txn_id] = Decision.ACCEPTED
        if candidate.txn_id in self.accepted_updates:
            # Re-recording replaces the transaction's updates: rebuild the
            # key index rather than leave the old ones bucketed.
            self._index_schema = None
        self.accepted_updates[candidate.txn_id] = candidate.updates
        self._index_backlog.append(candidate.txn_id)
        self.undecided.pop(candidate.txn_id, None)
        self._deferred.discard(candidate.txn_id)

    def record_reject(self, txn_id: str) -> None:
        self.decisions[txn_id] = Decision.REJECTED
        self.undecided.pop(txn_id, None)
        self._deferred.discard(txn_id)

    def record_defer(self, candidate: CandidateTransaction) -> None:
        self.decisions[candidate.txn_id] = Decision.DEFERRED
        self.undecided[candidate.txn_id] = candidate
        self._deferred.add(candidate.txn_id)

    def record_pending(self, candidate: CandidateTransaction) -> None:
        if self.is_decided(candidate.txn_id):
            return
        self.decisions.setdefault(candidate.txn_id, Decision.PENDING)
        self.undecided[candidate.txn_id] = candidate

    def accepted_ids(self) -> set[str]:
        """Ids with a stored ``ACCEPTED`` row (implicit accepts have none)."""
        return {
            txn_id
            for txn_id, decision in self.decisions.items()
            if decision is Decision.ACCEPTED
        }

    def rejected_ids(self) -> set[str]:
        return {
            txn_id
            for txn_id, decision in self.decisions.items()
            if decision is Decision.REJECTED
        }

    def deferred_ids(self) -> set[str]:
        """A copy of the ids currently deferred (maintained, not scanned)."""
        return set(self._deferred)

    def accepted_by_key(
        self, schema: PeerSchema
    ) -> Mapping[ConflictKey, list[tuple[str, Update]]]:
        """Accepted ``(txn_id, update)`` pairs bucketed by conflict key.

        Two updates can only conflict within one bucket (see
        :func:`~repro.reconcile.conflicts.conflict_key`), so a candidate is
        compared with the accepted transactions that touch its keys and not
        with the whole history.  The state itself is schema-free — accepts
        are recorded by the reconciler and by ``resolve_conflict`` alike —
        so ``record_accept`` only queues the id and the buckets are brought
        up to date here, under the schema of the caller.  Updates on
        relations outside the schema are left out, as conflict detection
        skips them.
        """
        if schema is not self._index_schema:
            self._index_schema = schema
            self._index.clear()
            self._index_backlog = list(self.accepted_updates)
        for txn_id in self._index_backlog:
            for update in self.accepted_updates[txn_id]:
                key = conflict_key(update, schema)
                if key is not None:
                    self._index.setdefault(key, []).append((txn_id, update))
        self._index_backlog.clear()
        return self._index

    def all_accepted_updates(self) -> list[Update]:
        updates: list[Update] = []
        for group in self.accepted_updates.values():
            updates.extend(group)
        return updates

    # -- deferred conflicts ----------------------------------------------------
    def add_deferred_conflict(
        self, txn_ids: Iterable[str], priority: int
    ) -> DeferredConflict:
        txn_ids = frozenset(txn_ids)
        for existing in self.deferred_conflicts:
            if not existing.resolved and existing.txn_ids == txn_ids:
                # Re-deferring the same unresolved conflict on a later
                # reconciliation must not create duplicates.
                return existing
        self._conflict_counter += 1
        conflict = DeferredConflict(
            conflict_id=self._conflict_counter,
            txn_ids=frozenset(txn_ids),
            priority=priority,
        )
        self.deferred_conflicts.append(conflict)
        return conflict

    def open_conflicts(self) -> list[DeferredConflict]:
        return [conflict for conflict in self.deferred_conflicts if not conflict.resolved]

    def conflict_containing(self, txn_id: str) -> DeferredConflict:
        for conflict in self.deferred_conflicts:
            if not conflict.resolved and txn_id in conflict.txn_ids:
                return conflict
        raise ReconciliationError(
            f"peer {self.peer!r} has no open deferred conflict involving {txn_id!r}"
        )

    # -- reporting ------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        counts = {"accepted": 0, "rejected": 0, "deferred": 0, "pending": 0}
        for decision in self.decisions.values():
            counts[decision.value] += 1
        counts["accepted"] += self.implicit_accepts
        counts["open_conflicts"] = len(self.open_conflicts())
        return counts
