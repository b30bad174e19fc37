"""Building applicable transaction groups from candidate transactions.

The reconciliation algorithm of the paper "combines candidate transactions
with the antecedent transactions needed to apply them, in order to produce
applicable transaction groups".  Concretely, for a candidate ``T``:

* antecedents that this peer has already **accepted** (or that originated at
  this peer itself) need nothing further;
* antecedents that have been **rejected** force ``T`` to be rejected;
* antecedents that are still undecided but available as candidates are pulled
  into ``T``'s group — accepting the group accepts them too, even if they
  would not have been trusted on their own (Scenario 3 of the demo);
* antecedents that are simply **unknown** (not yet published or never
  translated to this peer) leave ``T`` pending until they show up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Mapping, Optional

from ..exchange.translation import CandidateTransaction
from .decisions import Decision, ReconciliationState


@dataclass
class TransactionGroup:
    """A candidate transaction plus the undecided antecedents it pulls in.

    Attributes:
        candidate: The transaction whose acceptance is being considered.
        members: The candidate plus every undecided antecedent candidate that
            must be applied together with it, in dependency order (antecedents
            first).
        priority: Trust priority of the group (assigned later by
            :func:`repro.reconcile.priorities.group_priority`).
    """

    candidate: CandidateTransaction
    members: tuple[CandidateTransaction, ...]
    priority: int = 0

    @property
    def txn_id(self) -> str:
        return self.candidate.txn_id

    def member_ids(self) -> set[str]:
        return {member.txn_id for member in self.members}

    def describe(self) -> str:
        members = ", ".join(member.txn_id for member in self.members)
        return f"group[{self.candidate.txn_id}] members=({members}) priority={self.priority}"


@dataclass
class GroupingOutcome:
    """Result of :func:`build_groups`."""

    groups: list[TransactionGroup] = field(default_factory=list)
    #: Candidates rejected because an antecedent was already rejected.
    rejected: list[CandidateTransaction] = field(default_factory=list)
    #: Candidates left pending because an antecedent is unknown/undecided
    #: and unavailable.
    pending: list[CandidateTransaction] = field(default_factory=list)


def antecedent_closure(
    candidate: CandidateTransaction,
    by_id: Mapping[str, CandidateTransaction],
) -> set[str]:
    """All (transitively reachable) antecedent ids of a candidate."""
    closure: set[str] = set()
    frontier = list(candidate.antecedents)
    while frontier:
        current = frontier.pop()
        if current in closure:
            continue
        closure.add(current)
        known = by_id.get(current)
        if known is not None:
            frontier.extend(known.antecedents)
    return closure


def build_groups(
    candidates: Iterable[CandidateTransaction],
    state: ReconciliationState,
    local_peer: str,
    known_transactions: Optional[Container[str]] = None,
) -> GroupingOutcome:
    """Partition candidates into applicable groups, rejects and pendings.

    Args:
        candidates: The undecided candidate transactions to consider (newly
            translated plus previously deferred/pending ones).
        state: The peer's decision history.
        local_peer: Name of the reconciling peer; its own transactions are
            implicitly accepted.
        known_transactions: Optional container answering ``txn_id in ...``
            for *all* transactions ever published (used to resolve
            antecedents whose translation was empty for this peer — they are
            vacuously satisfied once published).  Only membership is asked,
            so the update store itself serves; no per-call map of the
            archive is needed.

    Returns:
        A :class:`GroupingOutcome` with one group per candidate that can be
        considered for acceptance this round.
    """
    if known_transactions is None:
        known_transactions = ()
    pool: dict[str, CandidateTransaction] = {}
    for candidate in candidates:
        if state.is_decided(candidate.txn_id):
            continue
        pool[candidate.txn_id] = candidate

    outcome = GroupingOutcome()

    def antecedent_status(txn_id: str) -> str:
        """Classify one antecedent: satisfied, rejected, available, or missing."""
        decision = state.decision(txn_id)
        if decision is Decision.ACCEPTED:
            return "satisfied"
        if decision is Decision.REJECTED:
            return "rejected"
        if txn_id in pool:
            return "available"
        if txn_id in known_transactions:
            # Published, but its translation carried nothing into this peer's
            # schema (or it originated here): nothing needs to be applied.
            return "satisfied"
        return "missing"

    for candidate in pool.values():
        closure = antecedent_closure(candidate, pool)
        statuses = {antecedent: antecedent_status(antecedent) for antecedent in closure}
        if any(status == "rejected" for status in statuses.values()):
            outcome.rejected.append(candidate)
            continue
        if any(status == "missing" for status in statuses.values()):
            outcome.pending.append(candidate)
            continue
        needed_ids = [
            antecedent
            for antecedent, status in statuses.items()
            if status == "available"
        ]
        members = _order_members(candidate, needed_ids, pool)
        outcome.groups.append(TransactionGroup(candidate=candidate, members=members))
    return outcome


def _order_members(
    candidate: CandidateTransaction,
    needed_ids: list[str],
    pool: Mapping[str, CandidateTransaction],
) -> tuple[CandidateTransaction, ...]:
    """Order group members so antecedents are applied before dependents."""
    members = [pool[txn_id] for txn_id in needed_ids if txn_id in pool]
    members.sort(key=lambda member: (member.epoch, member.txn_id))
    return tuple(members + [candidate])
