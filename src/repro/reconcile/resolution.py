"""Manual resolution of deferred conflicts.

When reconciliation defers a set of equal-priority conflicting transactions,
the site administrator can later choose which one to apply.  Following the
paper: the chosen transaction is accepted and applied, the conflicting ones
are rejected, every deferred transaction that transitively depends on the
chosen one is accepted automatically (when applicable), and every transaction
depending on a rejected one is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.peer import Peer
from ..errors import ReconciliationError
from ..exchange.translation import CandidateTransaction
from .decisions import Decision, ReconciliationState


@dataclass
class ResolutionResult:
    """Outcome of resolving one deferred conflict."""

    peer: str
    winner: str
    accepted: list[str] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)
    applied_updates: int = 0


def resolve_conflict(
    peer: Peer,
    state: ReconciliationState,
    winner_txn_id: str,
) -> ResolutionResult:
    """Resolve the open deferred conflict containing ``winner_txn_id``.

    The winner (and, transitively, deferred transactions depending on it) is
    accepted and applied to the peer's local instance; the losers (and,
    transitively, transactions depending on them) are rejected.
    """
    conflict = state.conflict_containing(winner_txn_id)
    winner = state.undecided.get(winner_txn_id)
    if winner is None:
        raise ReconciliationError(
            f"transaction {winner_txn_id!r} is no longer awaiting a decision at {peer.name!r}"
        )

    result = ResolutionResult(peer=peer.name, winner=winner_txn_id)

    _accept(peer, state, winner, result)
    for loser_id in sorted(conflict.txn_ids - {winner_txn_id}):
        _reject_cascade(state, loser_id, result)

    conflict.resolved = True
    conflict.winner = winner_txn_id

    _cascade_dependents(peer, state, result)
    return result


def _accept(
    peer: Peer,
    state: ReconciliationState,
    candidate: CandidateTransaction,
    result: ResolutionResult,
) -> None:
    if state.decision(candidate.txn_id) is Decision.ACCEPTED:
        return
    peer.apply_updates(candidate.updates, producer=candidate.txn_id)
    state.record_accept(candidate)
    result.accepted.append(candidate.txn_id)
    result.applied_updates += len(candidate.updates)


def _reject_cascade(state: ReconciliationState, txn_id: str, result: ResolutionResult) -> None:
    if state.decision(txn_id) is Decision.REJECTED:
        return
    state.record_reject(txn_id)
    result.rejected.append(txn_id)


def _cascade_dependents(
    peer: Peer, state: ReconciliationState, result: ResolutionResult
) -> None:
    """Repeatedly propagate decisions to deferred/pending dependents."""
    changed = True
    while changed:
        changed = False
        in_open_conflict: set[str] = set()
        for conflict in state.open_conflicts():
            in_open_conflict.update(conflict.txn_ids)
        for candidate in list(state.undecided.values()):
            if candidate.txn_id in in_open_conflict:
                # Still part of another unresolved conflict: leave it to a
                # future explicit resolution.
                continue
            antecedent_decisions = {
                antecedent: state.decision(antecedent)
                for antecedent in candidate.antecedents
            }
            if any(
                decision is Decision.REJECTED
                for decision in antecedent_decisions.values()
            ):
                _reject_cascade(state, candidate.txn_id, result)
                changed = True
                continue
            if candidate.antecedents and all(
                decision is Decision.ACCEPTED
                for decision in antecedent_decisions.values()
            ):
                # Every antecedent is now accepted: the deferred dependent can
                # be applied automatically (Scenario 4 of the demonstration).
                _accept(peer, state, candidate, result)
                changed = True
