"""Unit tests for reconciliation state: decisions and deferred conflicts."""

import pytest

from repro.core.updates import Update
from repro.errors import ReconciliationError
from repro.exchange.translation import CandidateTransaction
from repro.reconcile.decisions import Decision, ReconciliationState


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
