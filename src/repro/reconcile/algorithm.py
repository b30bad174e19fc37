"""The greedy reconciliation algorithm.

Given the undecided candidate transactions visible to a peer, the reconciler:

1. builds applicable transaction groups (candidates plus the undecided
   antecedents they need), rejecting candidates whose antecedents were
   rejected and leaving candidates with missing antecedents pending;
2. assigns each group a trust priority; groups with priority 0 are rejected
   (their data is distrusted);
3. processes priorities from highest to lowest; within a priority level a
   group is accepted when it conflicts neither with previously accepted data
   nor with an already accepted group, is rejected when a strictly
   higher-priority group (or earlier accepted state) has claimed the
   conflicting key, and is *deferred* when the conflict is with another group
   of the same priority — those are handed to the administrator;
4. transactions that depend on deferred transactions are deferred as well;
5. accepted groups are applied to the peer's local instance atomically, in
   dependency order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, Mapping, Optional

from ..core.peer import Peer
from ..core.schema import PeerSchema
from ..core.updates import Update, conflicting
from ..exchange.translation import CandidateTransaction
from ..provenance.graph import ProvenanceGraph
from .candidates import GroupingOutcome, TransactionGroup, antecedent_closure, build_groups
from .conflicts import ConflictKey, conflict_key
from .decisions import Decision, ReconciliationState
from .priorities import group_priority, trusted_variable_set


@dataclass
class ReconcileResult:
    """Summary of one reconciliation run at one peer."""

    peer: str
    epoch: int = 0
    accepted: list[str] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)
    deferred: list[str] = field(default_factory=list)
    pending: list[str] = field(default_factory=list)
    conflicts_deferred: int = 0
    applied_updates: int = 0

    def summary(self) -> dict[str, int]:
        return {
            "accepted": len(self.accepted),
            "rejected": len(self.rejected),
            "deferred": len(self.deferred),
            "pending": len(self.pending),
            "conflicts_deferred": self.conflicts_deferred,
            "applied_updates": self.applied_updates,
        }

    def to_dict(self) -> dict:
        """Plain-data form (full id lists, unlike the count-only summary)."""
        return {
            "peer": self.peer,
            "accepted": list(self.accepted),
            "rejected": list(self.rejected),
            "deferred": list(self.deferred),
            "pending": list(self.pending),
            "conflicts_deferred": self.conflicts_deferred,
            "applied_updates": self.applied_updates,
        }


class Reconciler:
    """Runs the reconciliation algorithm for one peer."""

    def __init__(
        self,
        peer: Peer,
        state: Optional[ReconciliationState] = None,
    ) -> None:
        self._peer = peer
        self._state = state or ReconciliationState(peer=peer.name)

    @property
    def state(self) -> ReconciliationState:
        return self._state

    @property
    def peer(self) -> Peer:
        return self._peer

    # -- the main entry point ----------------------------------------------------
    def reconcile(
        self,
        candidates: Iterable[CandidateTransaction],
        known_transactions: Optional[Container[str]] = None,
        provenance: Optional[ProvenanceGraph] = None,
        epoch: int = 0,
    ) -> ReconcileResult:
        """Decide and apply one batch of candidate transactions.

        ``candidates`` should contain the newly translated transactions; the
        reconciler automatically re-considers candidates left undecided by
        earlier runs.  ``known_transactions`` answers ``txn_id in ...`` for
        every transaction ever published (see :func:`build_groups`).

        The cost follows the candidates and the undecided pool, not the
        decision history: accepted state is consulted through a per-key
        index, and the deferred set is maintained rather than recomputed.
        """
        result = ReconcileResult(peer=self._peer.name, epoch=epoch)

        pool: dict[str, CandidateTransaction] = {}
        for candidate in self._state.undecided.values():
            pool[candidate.txn_id] = candidate
        for candidate in candidates:
            if candidate.origin == self._peer.name:
                # The peer's own transactions are already applied locally.
                self._state.decisions.setdefault(candidate.txn_id, Decision.ACCEPTED)
                continue
            if candidate.is_empty:
                # No effect in this peer's schema: vacuously accepted so that
                # dependents do not wait for it.
                self._state.decisions.setdefault(candidate.txn_id, Decision.ACCEPTED)
                continue
            if not self._state.is_decided(candidate.txn_id):
                pool[candidate.txn_id] = candidate
        if not pool:
            # Nothing to decide: no groups, priorities or selection.
            return result

        grouping = build_groups(
            pool.values(), self._state, self._peer.name, known_transactions
        )
        self._reject_candidates(grouping, result)
        self._mark_pending(grouping, result)

        trusted_peers = trusted_variables = None
        if provenance is not None and self._peer.trust.require_trusted_provenance:
            trusted_peers = self._peer.trust.trusted_peers(
                {candidate.origin for candidate in pool.values()} | {self._peer.name}
            )
            if grouping.groups:
                # One scan of the graph per call, not one per group.
                trusted_variables = trusted_variable_set(provenance, trusted_peers)
        else:
            provenance = None
        for group in grouping.groups:
            group_priority(
                group, self._peer.trust, self._peer.schema,
                provenance, trusted_peers, trusted_variables,
            )

        self._greedy_select(grouping.groups, _CallMemo(pool, self._peer.schema), result)
        return result

    # -- phases -------------------------------------------------------------------
    def _reject_candidates(self, grouping: GroupingOutcome, result: ReconcileResult) -> None:
        for candidate in grouping.rejected:
            self._state.record_reject(candidate.txn_id)
            result.rejected.append(candidate.txn_id)

    def _mark_pending(self, grouping: GroupingOutcome, result: ReconcileResult) -> None:
        for candidate in grouping.pending:
            self._state.record_pending(candidate)
            result.pending.append(candidate.txn_id)

    def _greedy_select(
        self,
        groups: list[TransactionGroup],
        memo: _CallMemo,
        result: ReconcileResult,
    ) -> None:
        # Distrusted groups (priority 0) are rejected outright, unless their
        # candidate is needed as an antecedent of a trusted group — in that
        # case it will be applied as part of that group.
        needed_as_antecedent: set[str] = set()
        for group in groups:
            if group.priority > 0:
                needed_as_antecedent.update(
                    member.txn_id for member in group.members[:-1]
                )

        viable: list[TransactionGroup] = []
        for group in groups:
            if group.priority > 0:
                viable.append(group)
            elif group.txn_id not in needed_as_antecedent:
                self._state.record_reject(group.txn_id)
                result.rejected.append(group.txn_id)
            # else: leave undecided; its fate follows the trusted dependent.

        # Transactions deferred by an earlier reconciliation stay deferred
        # until the administrator resolves their conflict (paper semantics);
        # they also transitively defer anything that depends on them.
        deferred_ids = self._state.deferred_ids()
        accepted_groups = _GroupIndex(memo)

        by_priority: dict[int, list[TransactionGroup]] = defaultdict(list)
        for group in viable:
            by_priority[group.priority].append(group)

        for priority in sorted(by_priority, reverse=True):
            level = sorted(by_priority[priority], key=lambda group: group.txn_id)
            survivors: list[TransactionGroup] = []
            for group in level:
                if group.txn_id in deferred_ids:
                    continue
                if deferred_ids and memo.closure(group.candidate) & deferred_ids:
                    self._defer_group(group, result, deferred_ids)
                    continue
                if self._conflicts_with_accepted(group, accepted_groups, memo):
                    self._state.record_reject(group.txn_id)
                    result.rejected.append(group.txn_id)
                    continue
                survivors.append(group)

            deferred_here: set[str] = set()
            for conflict_set in self._same_priority_conflicts(survivors, memo):
                ids = sorted(group.txn_id for group in conflict_set)
                self._state.add_deferred_conflict(ids, priority)
                result.conflicts_deferred += 1
                for group in conflict_set:
                    if group.txn_id not in deferred_here:
                        self._defer_group(group, result, deferred_ids)
                        deferred_here.add(group.txn_id)

            for group in survivors:
                if group.txn_id in deferred_here:
                    continue
                if self._conflicts_with_accepted(group, accepted_groups, memo):
                    self._state.record_reject(group.txn_id)
                    result.rejected.append(group.txn_id)
                    continue
                self._accept_group(group, result)
                accepted_groups.add(group)

    # -- helpers -------------------------------------------------------------------
    def _conflicts_with_accepted(
        self, group: TransactionGroup, accepted_groups: _GroupIndex, memo: _CallMemo
    ) -> bool:
        """Conflict against this round's accepted groups and the stored state.

        Only the accepted updates that share a conflict key with one of the
        group's members are looked at, so the cost follows the group and not
        the number of transactions ever accepted.
        """
        if accepted_groups.conflicts_with(group):
            return True
        schema = self._peer.schema
        accepted = self._state.accepted_by_key(schema)
        own = memo.closure(group.candidate) | group.member_ids()
        for member in group.members:
            for key, update in memo.keyed_updates(member):
                relation_schema = schema.relation(update.relation)
                for txn_id, accepted_update in accepted.get(key, ()):
                    if txn_id not in own and conflicting(
                        update, accepted_update, relation_schema
                    ):
                        return True
        return False

    def _same_priority_conflicts(
        self, groups: list[TransactionGroup], memo: _CallMemo
    ) -> list[list[TransactionGroup]]:
        """Find connected components of mutually conflicting same-priority groups."""
        conflict_edges: dict[str, set[str]] = defaultdict(set)
        by_id = {group.txn_id: group for group in groups}
        ids = sorted(by_id)
        earlier = _GroupIndex(memo)
        for txn_id in ids:
            for other_id in earlier.conflicting_ids(by_id[txn_id]):
                conflict_edges[txn_id].add(other_id)
                conflict_edges[other_id].add(txn_id)
            earlier.add(by_id[txn_id])

        components: list[list[TransactionGroup]] = []
        seen: set[str] = set()
        for txn_id in ids:
            if txn_id in seen or txn_id not in conflict_edges:
                continue
            component: list[str] = []
            frontier = [txn_id]
            while frontier:
                current = frontier.pop()
                if current in seen:
                    continue
                seen.add(current)
                component.append(current)
                frontier.extend(conflict_edges[current] - seen)
            components.append([by_id[member] for member in sorted(component)])
        return components

    def _defer_group(
        self,
        group: TransactionGroup,
        result: ReconcileResult,
        deferred_ids: set[str],
    ) -> None:
        self._state.record_defer(group.candidate)
        result.deferred.append(group.txn_id)
        deferred_ids.add(group.txn_id)

    def _accept_group(self, group: TransactionGroup, result: ReconcileResult) -> None:
        """Apply every member of the group to the local instance and record it."""
        for member in group.members:
            if self._state.decision(member.txn_id) is Decision.ACCEPTED:
                continue
            self._peer.apply_updates(member.updates, producer=member.txn_id)
            self._state.record_accept(member)
            result.accepted.append(member.txn_id)
            result.applied_updates += len(member.updates)


class _CallMemo:
    """Per-member facts of one ``reconcile`` call, each computed at most once.

    A member's antecedent closure over the call's pool is the same whichever
    group pulled the member in: every pool transaction a formed group's
    candidate reaches is itself a member of that group.
    """

    def __init__(self, pool: Mapping[str, CandidateTransaction], schema: PeerSchema) -> None:
        self.pool = pool
        self.schema = schema
        self._closures: dict[str, set[str]] = {}
        self._keyed: dict[str, list[tuple[ConflictKey, Update]]] = {}

    def closure(self, member: CandidateTransaction) -> set[str]:
        closure = self._closures.get(member.txn_id)
        if closure is None:
            closure = self._closures[member.txn_id] = antecedent_closure(member, self.pool)
        return closure

    def related(self, left: CandidateTransaction, right: CandidateTransaction) -> bool:
        """Is one of the two (transitively) an antecedent of the other?"""
        return left.txn_id in self.closure(right) or right.txn_id in self.closure(left)

    def keyed_updates(self, member: CandidateTransaction) -> list[tuple[ConflictKey, Update]]:
        """The member's updates on schema relations, with their conflict keys."""
        keyed = self._keyed.get(member.txn_id)
        if keyed is None:
            keyed = self._keyed[member.txn_id] = [
                (key, update)
                for update in member.updates
                if (key := conflict_key(update, self.schema)) is not None
            ]
        return keyed


class _GroupIndex:
    """The members' updates of a set of groups, bucketed by conflict key.

    Answers the member-wise, antecedent-sensitive conflict question — two
    members conflict when they are different transactions, neither is an
    antecedent of the other, and two of their updates conflict — against
    every indexed group at once, looking only at the buckets a group touches.
    """

    def __init__(self, memo: _CallMemo) -> None:
        self._memo = memo
        self._buckets: dict[
            ConflictKey, list[tuple[TransactionGroup, CandidateTransaction, Update]]
        ] = defaultdict(list)

    def add(self, group: TransactionGroup) -> None:
        for member in group.members:
            for key, update in self._memo.keyed_updates(member):
                self._buckets[key].append((group, member, update))

    def conflicting_ids(self, group: TransactionGroup) -> Iterator[str]:
        """Ids of the indexed groups ``group`` conflicts with (may repeat)."""
        memo = self._memo
        for member in group.members:
            for key, update in memo.keyed_updates(member):
                relation_schema = memo.schema.relation(update.relation)
                for other_group, other, other_update in self._buckets.get(key, ()):
                    if other.txn_id == member.txn_id or memo.related(member, other):
                        continue
                    if conflicting(update, other_update, relation_schema):
                        yield other_group.txn_id

    def conflicts_with(self, group: TransactionGroup) -> bool:
        return next(self.conflicting_ids(group), None) is not None
