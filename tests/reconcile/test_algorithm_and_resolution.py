"""Unit tests for the greedy reconciliation algorithm and manual resolution."""

import pytest

from repro.core.peer import Peer
from repro.core.schema import PeerSchema
from repro.core.trust import TrustPolicy
from repro.core.updates import Update
from repro.errors import ReconciliationError
from repro.exchange.translation import CandidateTransaction
from repro.reconcile.algorithm import Reconciler
from repro.reconcile.decisions import Decision
from repro.reconcile.resolution import resolve_conflict

SIGMA2 = PeerSchema.build("Sigma2", {"OPS": ["org", "prot", "seq"]}, {"OPS": ["org", "prot"]})


def make_peer(trust: TrustPolicy | None = None) -> Peer:
    return Peer("Crete", SIGMA2, trust or TrustPolicy.trust_all("Crete"))


def candidate(
    txn_id: str,
    origin: str = "Beijing",
    org: str = "E. coli",
    prot: str = "recA",
    seq: str = "AAA",
    antecedents=(),
    kind: str = "insert",
    old_seq: str = "AAA",
) -> CandidateTransaction:
    if kind == "insert":
        update = Update.insert("OPS", (org, prot, seq), origin=origin)
    elif kind == "delete":
        update = Update.delete("OPS", (org, prot, seq), origin=origin)
    else:
        update = Update.modify("OPS", (org, prot, old_seq), (org, prot, seq), origin=origin)
    return CandidateTransaction(
        txn_id=txn_id,
        origin=origin,
        target_peer="Crete",
        updates=(update,),
        antecedents=frozenset(antecedents),
    )


class TestAcceptance:
    def test_accepts_trusted_candidate_and_applies_it(self):
        peer = make_peer()
        reconciler = Reconciler(peer)
        result = reconciler.reconcile([candidate("t1")])
        assert result.accepted == ["t1"]
        assert peer.instance.contains("OPS", ("E. coli", "recA", "AAA"))
        assert result.applied_updates == 1

    def test_own_transactions_trivially_accepted(self):
        peer = make_peer()
        reconciler = Reconciler(peer)
        result = reconciler.reconcile([candidate("t1", origin="Crete")])
        assert result.accepted == []
        assert reconciler.state.decision("t1") is Decision.ACCEPTED
        # Not re-applied: the peer already has its own data.
        assert not peer.instance.contains("OPS", ("E. coli", "recA", "AAA"))

    def test_empty_candidates_vacuously_accepted(self):
        peer = make_peer()
        reconciler = Reconciler(peer)
        empty = CandidateTransaction("t1", "Beijing", "Crete", ())
        result = reconciler.reconcile([empty])
        assert reconciler.state.decision("t1") is Decision.ACCEPTED
        assert result.accepted == []

    def test_distrusted_candidate_rejected(self):
        peer = make_peer(TrustPolicy.trust_only("Crete", {"Beijing": 2}, others=0))
        reconciler = Reconciler(peer)
        result = reconciler.reconcile([candidate("t1", origin="Alaska")])
        assert result.rejected == ["t1"]
        assert not peer.instance.contains("OPS", ("E. coli", "recA", "AAA"))

    def test_antecedent_group_accepted_with_candidate(self):
        peer = make_peer(TrustPolicy.trust_only("Crete", {"Beijing": 2}, others=0))
        reconciler = Reconciler(peer)
        parent = candidate("t1", origin="Alaska", seq="AAA")
        child = candidate("t2", origin="Beijing", seq="BBB", antecedents={"t1"},
                          kind="modify", old_seq="AAA")
        result = reconciler.reconcile([parent, child])
        assert set(result.accepted) == {"t1", "t2"}
        assert peer.instance.contains("OPS", ("E. coli", "recA", "BBB"))

    def test_already_decided_candidates_ignored(self):
        peer = make_peer()
        reconciler = Reconciler(peer)
        reconciler.reconcile([candidate("t1")])
        result = reconciler.reconcile([candidate("t1")])
        assert result.accepted == []


class TestConflicts:
    def test_higher_priority_wins(self):
        peer = make_peer(TrustPolicy.trust_only("Crete", {"Beijing": 2, "Dresden": 1}, others=0))
        reconciler = Reconciler(peer)
        result = reconciler.reconcile(
            [candidate("beijing", origin="Beijing", seq="AAA"),
             candidate("dresden", origin="Dresden", seq="BBB")]
        )
        assert result.accepted == ["beijing"]
        assert result.rejected == ["dresden"]
        assert peer.instance.contains("OPS", ("E. coli", "recA", "AAA"))

    def test_equal_priority_conflict_deferred(self):
        peer = make_peer()
        reconciler = Reconciler(peer)
        result = reconciler.reconcile(
            [candidate("a", origin="Alaska", seq="AAA"),
             candidate("b", origin="Beijing", seq="BBB")]
        )
        assert set(result.deferred) == {"a", "b"}
        assert result.conflicts_deferred == 1
        assert len(reconciler.state.open_conflicts()) == 1
        assert peer.instance.count("OPS") == 0

    def test_non_conflicting_candidates_both_accepted(self):
        peer = make_peer()
        reconciler = Reconciler(peer)
        result = reconciler.reconcile(
            [candidate("a", prot="recA", seq="AAA"), candidate("b", prot="gal4", seq="BBB")]
        )
        assert set(result.accepted) == {"a", "b"}

    def test_conflict_with_previously_accepted_state_rejected(self):
        peer = make_peer()
        reconciler = Reconciler(peer)
        reconciler.reconcile([candidate("first", seq="AAA")])
        result = reconciler.reconcile([candidate("second", origin="Dresden", seq="BBB")])
        assert result.rejected == ["second"]

    def test_dependent_modification_of_accepted_state_not_a_conflict(self):
        peer = make_peer()
        reconciler = Reconciler(peer)
        reconciler.reconcile([candidate("first", seq="AAA")])
        follow_up = candidate(
            "second", seq="BBB", antecedents={"first"}, kind="modify", old_seq="AAA"
        )
        result = reconciler.reconcile([follow_up])
        assert result.accepted == ["second"]
        assert peer.instance.contains("OPS", ("E. coli", "recA", "BBB"))

    def test_rejected_antecedent_rejects_dependent(self):
        peer = make_peer(TrustPolicy.trust_only("Crete", {"Beijing": 2, "Dresden": 1}, others=0))
        reconciler = Reconciler(peer)
        reconciler.reconcile(
            [candidate("beijing", origin="Beijing", seq="AAA"),
             candidate("dresden", origin="Dresden", seq="BBB")]
        )
        dependent = candidate(
            "dresden2", origin="Dresden", seq="CCC", antecedents={"dresden"},
            kind="modify", old_seq="BBB",
        )
        result = reconciler.reconcile([dependent])
        assert result.rejected == ["dresden2"]

    def test_missing_antecedent_leaves_pending_until_available(self):
        peer = make_peer()
        reconciler = Reconciler(peer)
        dependent = candidate("child", seq="BBB", antecedents={"parent"})
        result = reconciler.reconcile([dependent])
        assert result.pending == ["child"]
        # Once the antecedent arrives, both are applied.
        result = reconciler.reconcile([candidate("parent", seq="BBB", prot="other")])
        assert set(result.accepted) == {"parent", "child"}

    def test_dependent_of_deferred_is_deferred(self):
        peer = make_peer()
        reconciler = Reconciler(peer)
        reconciler.reconcile(
            [candidate("a", origin="Alaska", seq="AAA"),
             candidate("b", origin="Beijing", seq="BBB")]
        )
        dependent = candidate(
            "c", origin="Dresden", seq="CCC", antecedents={"b"}, kind="modify", old_seq="BBB"
        )
        result = reconciler.reconcile([dependent])
        assert result.deferred == ["c"]


class TestResolution:
    def _deferred_conflict(self):
        peer = make_peer()
        reconciler = Reconciler(peer)
        reconciler.reconcile(
            [candidate("a", origin="Alaska", seq="AAA"),
             candidate("b", origin="Beijing", seq="BBB")]
        )
        return peer, reconciler

    def test_resolution_accepts_winner_and_rejects_losers(self):
        peer, reconciler = self._deferred_conflict()
        result = resolve_conflict(peer, reconciler.state, "b")
        assert result.accepted == ["b"]
        assert result.rejected == ["a"]
        assert peer.instance.contains("OPS", ("E. coli", "recA", "BBB"))
        assert not peer.instance.contains("OPS", ("E. coli", "recA", "AAA"))
        assert not reconciler.state.open_conflicts()

    def test_resolution_cascades_to_dependents(self):
        peer, reconciler = self._deferred_conflict()
        dependent = candidate("c", seq="CCC", antecedents={"b"}, kind="modify", old_seq="BBB")
        reconciler.reconcile([dependent])
        result = resolve_conflict(peer, reconciler.state, "b")
        assert "c" in result.accepted
        assert peer.instance.contains("OPS", ("E. coli", "recA", "CCC"))

    def test_resolution_rejects_dependents_of_losers(self):
        peer, reconciler = self._deferred_conflict()
        dependent = candidate("c", seq="CCC", antecedents={"a"}, kind="modify", old_seq="AAA")
        reconciler.reconcile([dependent])
        result = resolve_conflict(peer, reconciler.state, "b")
        assert "c" in result.rejected

    def test_resolution_of_unknown_conflict_rejected(self):
        peer, reconciler = self._deferred_conflict()
        with pytest.raises(ReconciliationError):
            resolve_conflict(peer, reconciler.state, "not-deferred")

    def test_reconcile_after_resolution_keeps_decisions(self):
        peer, reconciler = self._deferred_conflict()
        resolve_conflict(peer, reconciler.state, "b")
        result = reconciler.reconcile([])
        assert not result.accepted
        assert reconciler.state.decision("a") is Decision.REJECTED
        assert reconciler.state.decision("b") is Decision.ACCEPTED
