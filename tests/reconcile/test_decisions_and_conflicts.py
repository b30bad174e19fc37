"""Unit tests for reconciliation state and conflict detection."""

import pytest

from repro.core.schema import PeerSchema
from repro.core.updates import Update
from repro.errors import ReconciliationError
from repro.exchange.translation import CandidateTransaction
from repro.reconcile.conflicts import conflicts_between, conflicts_with_state, updates_conflict
from repro.reconcile.decisions import Decision, ReconciliationState

SIGMA2 = PeerSchema.build("Sigma2", {"OPS": ["org", "prot", "seq"]}, {"OPS": ["org", "prot"]})


def candidate(txn_id: str, seq: str = "AAA", origin: str = "Beijing", antecedents=()) -> CandidateTransaction:
    return CandidateTransaction(
        txn_id=txn_id,
        origin=origin,
        target_peer="Crete",
        updates=(Update.insert("OPS", ("E. coli", "recA", seq), origin=origin),),
        antecedents=frozenset(antecedents),
    )


class TestReconciliationState:
    def test_default_decision_is_pending(self):
        state = ReconciliationState(peer="Crete")
        assert state.decision("unknown") is Decision.PENDING
        assert not state.is_decided("unknown")

    def test_accept_records_updates(self):
        state = ReconciliationState(peer="Crete")
        accepted = candidate("t1")
        state.record_accept(accepted)
        assert state.decision("t1") is Decision.ACCEPTED
        assert state.accepted_ids() == {"t1"}
        assert len(state.all_accepted_updates()) == 1
        assert "t1" not in state.undecided

    def test_reject_and_defer(self):
        state = ReconciliationState(peer="Crete")
        deferred = candidate("t2")
        state.record_defer(deferred)
        assert state.decision("t2") is Decision.DEFERRED
        assert "t2" in state.undecided
        state.record_reject("t3")
        assert state.rejected_ids() == {"t3"}
        assert state.deferred_ids() == {"t2"}

    def test_record_pending_does_not_override_decisions(self):
        state = ReconciliationState(peer="Crete")
        state.record_accept(candidate("t1"))
        state.record_pending(candidate("t1"))
        assert state.decision("t1") is Decision.ACCEPTED

    def test_deferred_conflicts_deduplicated(self):
        state = ReconciliationState(peer="Crete")
        first = state.add_deferred_conflict(["a", "b"], priority=1)
        second = state.add_deferred_conflict(["b", "a"], priority=1)
        assert first is second
        assert len(state.open_conflicts()) == 1

    def test_conflict_containing(self):
        state = ReconciliationState(peer="Crete")
        state.add_deferred_conflict(["a", "b"], priority=1)
        assert state.conflict_containing("a").txn_ids == frozenset({"a", "b"})
        with pytest.raises(ReconciliationError):
            state.conflict_containing("zzz")

    def test_summary(self):
        state = ReconciliationState(peer="Crete")
        state.record_accept(candidate("t1"))
        state.record_reject("t2")
        state.record_defer(candidate("t3"))
        summary = state.summary()
        assert summary["accepted"] == 1
        assert summary["rejected"] == 1
        assert summary["deferred"] == 1

    def test_implicit_rule_answers_for_transactions_without_a_row(self):
        vacuous = {"v1", "v2", "t2"}
        state = ReconciliationState(peer="Crete", implicit_rule=vacuous.__contains__)
        state.implicit_accepts = 2  # kept by whoever offers: v1 and v2
        state.record_reject("t2")
        assert state.decision("v1") is Decision.ACCEPTED and state.is_decided("v1")
        assert state.decision("t2") is Decision.REJECTED  # a stored row wins
        assert state.decision("other") is Decision.PENDING
        assert state.decisions == {"t2": Decision.REJECTED}
        assert state.summary()["accepted"] == 2

        # Writing the implied accepts out changes no answer and no count.
        state.store_implicit(["v1", "t2", "other"])
        assert state.decisions == {"t2": Decision.REJECTED, "v1": Decision.ACCEPTED}
        assert state.implicit_accepts == 1 and state.summary()["accepted"] == 2
        vacuous.clear()
        assert state.decision("v1") is Decision.ACCEPTED
        assert state.decision("v2") is Decision.PENDING


class TestConflictDetection:
    def test_updates_conflict_same_key(self):
        left = [Update.insert("OPS", ("E. coli", "recA", "AAA"))]
        right = [Update.insert("OPS", ("E. coli", "recA", "BBB"))]
        assert updates_conflict(left, right, SIGMA2)

    def test_updates_do_not_conflict_on_unknown_relation(self):
        left = [Update.insert("Unknown", (1,))]
        right = [Update.insert("Unknown", (2,))]
        assert not updates_conflict(left, right, SIGMA2)

    def test_candidates_conflict(self):
        assert conflicts_between(candidate("t1", "AAA"), candidate("t2", "BBB"), SIGMA2)
        assert not conflicts_between(candidate("t1", "AAA"), candidate("t2", "AAA"), SIGMA2)

    def test_same_transaction_never_conflicts(self):
        assert not conflicts_between(candidate("t1", "AAA"), candidate("t1", "BBB"), SIGMA2)

    def test_conflicts_with_state(self):
        accepted = [Update.insert("OPS", ("E. coli", "recA", "AAA"))]
        assert conflicts_with_state(candidate("t2", "BBB"), accepted, SIGMA2)
        assert not conflicts_with_state(candidate("t2", "AAA"), accepted, SIGMA2)
