"""Unit tests for transaction grouping and priority assignment."""

from repro.core.peer import Peer
from repro.core.schema import PeerSchema
from repro.core.trust import TrustPolicy
from repro.core.updates import Update
from repro.exchange.translation import CandidateTransaction
from repro.provenance.graph import ProvenanceGraph
from repro.reconcile.algorithm import Reconciler
from repro.reconcile.candidates import TransactionGroup, antecedent_closure, build_groups
from repro.reconcile.decisions import ReconciliationState
from repro.reconcile.priorities import group_priority

SIGMA2 = PeerSchema.build("Sigma2", {"OPS": ["org", "prot", "seq"]}, {"OPS": ["org", "prot"]})


def candidate(txn_id: str, origin: str = "Beijing", antecedents=(), seq: str = "AAA") -> CandidateTransaction:
    return CandidateTransaction(
        txn_id=txn_id,
        origin=origin,
        target_peer="Crete",
        updates=(Update.insert("OPS", ("E. coli", txn_id, seq), origin=origin),),
        antecedents=frozenset(antecedents),
    )


class TestAntecedentClosure:
    def test_transitive_closure(self):
        pool = {
            "a": candidate("a"),
            "b": candidate("b", antecedents={"a"}),
            "c": candidate("c", antecedents={"b"}),
        }
        assert antecedent_closure(pool["c"], pool) == {"a", "b"}

    def test_unknown_antecedents_included_but_not_expanded(self):
        pool = {"c": candidate("c", antecedents={"x"})}
        assert antecedent_closure(pool["c"], pool) == {"x"}


class TestBuildGroups:
    def test_independent_candidates_form_singleton_groups(self):
        state = ReconciliationState(peer="Crete")
        outcome = build_groups([candidate("t1"), candidate("t2")], state, "Crete")
        assert len(outcome.groups) == 2
        assert all(len(group.members) == 1 for group in outcome.groups)

    def test_available_antecedent_pulled_into_group(self):
        state = ReconciliationState(peer="Crete")
        parent = candidate("t1", origin="Alaska")
        child = candidate("t2", antecedents={"t1"})
        outcome = build_groups([parent, child], state, "Crete")
        child_group = next(group for group in outcome.groups if group.txn_id == "t2")
        assert child_group.member_ids() == {"t1", "t2"}
        # Antecedents come before dependents.
        assert [member.txn_id for member in child_group.members] == ["t1", "t2"]

    def test_rejected_antecedent_rejects_candidate(self):
        state = ReconciliationState(peer="Crete")
        state.record_reject("t1")
        outcome = build_groups([candidate("t2", antecedents={"t1"})], state, "Crete")
        assert [c.txn_id for c in outcome.rejected] == ["t2"]
        assert not outcome.groups

    def test_accepted_antecedent_is_satisfied(self):
        state = ReconciliationState(peer="Crete")
        state.record_accept(candidate("t1"))
        outcome = build_groups([candidate("t2", antecedents={"t1"})], state, "Crete")
        assert len(outcome.groups) == 1
        assert outcome.groups[0].member_ids() == {"t2"}

    def test_missing_antecedent_leaves_candidate_pending(self):
        state = ReconciliationState(peer="Crete")
        outcome = build_groups([candidate("t2", antecedents={"unknown"})], state, "Crete")
        assert [c.txn_id for c in outcome.pending] == ["t2"]

    def test_published_but_empty_antecedent_is_satisfied(self):
        state = ReconciliationState(peer="Crete")
        known = {"t1": frozenset()}
        outcome = build_groups(
            [candidate("t2", antecedents={"t1"})], state, "Crete", known
        )
        assert len(outcome.groups) == 1

    def test_decided_candidates_skipped(self):
        state = ReconciliationState(peer="Crete")
        state.record_accept(candidate("t1"))
        outcome = build_groups([candidate("t1")], state, "Crete")
        assert not outcome.groups


class TestGroupPriority:
    def test_priority_from_candidate_only(self):
        policy = TrustPolicy.trust_only("Crete", {"Beijing": 2, "Dresden": 1}, others=0)
        parent = candidate("t1", origin="Alaska")
        child = candidate("t2", origin="Beijing", antecedents={"t1"})
        group = TransactionGroup(candidate=child, members=(parent, child))
        assert group_priority(group, policy, SIGMA2) == 2
        assert group.priority == 2

    def test_distrusted_candidate_priority_zero(self):
        policy = TrustPolicy.trust_only("Crete", {"Beijing": 2}, others=0)
        group = TransactionGroup(candidate=candidate("t1", origin="Alaska"), members=(candidate("t1", origin="Alaska"),))
        assert group_priority(group, policy, SIGMA2) == 0

    def test_provenance_requirement_downgrades_unsupported(self):
        policy = TrustPolicy.trust_only("Crete", {"Beijing": 2}, others=0)
        graph = ProvenanceGraph()
        graph.add_base_tuple("Alaska.OPS!pub", ("E. coli", "t1", "AAA"), "Alaska.OPS!pub(E. coli,t1,AAA)")
        graph.add_derivation(
            "M", ("Crete.OPS", ("E. coli", "t1", "AAA")), [("Alaska.OPS!pub", ("E. coli", "t1", "AAA"))]
        )
        trusted = {"Beijing", "Crete"}
        group = TransactionGroup(
            candidate=candidate("t1", origin="Beijing"), members=(candidate("t1", origin="Beijing"),)
        )
        assert group_priority(group, policy, SIGMA2, graph, trusted) == 0

    def test_provenance_requirement_keeps_supported(self):
        policy = TrustPolicy.trust_only("Crete", {"Beijing": 2}, others=0)
        graph = ProvenanceGraph()
        graph.add_base_tuple("Beijing.OPS!pub", ("E. coli", "t1", "AAA"))
        graph.add_derivation(
            "M", ("Crete.OPS", ("E. coli", "t1", "AAA")), [("Beijing.OPS!pub", ("E. coli", "t1", "AAA"))]
        )
        group = TransactionGroup(
            candidate=candidate("t1", origin="Beijing"), members=(candidate("t1", origin="Beijing"),)
        )
        assert group_priority(group, policy, SIGMA2, graph, {"Beijing", "Crete"}) == 2

    def test_provenance_requirement_reads_the_peer_off_each_variable(self):
        """A tuple both Alaska and Beijing published stays supported when
        either is trusted, through a join with a trusted peer's tuple."""
        policy = TrustPolicy.trust_only("Crete", {"Beijing": 2, "Alaska": 1}, others=0)
        row = ("E. coli", "t1", "AAA")
        graph = ProvenanceGraph()
        for publisher in ("Alaska", "Beijing"):
            graph.add_base_tuple(f"{publisher}.OPS!pub", row)
            graph.add_derivation("M", ("Crete.OPS", row), [(f"{publisher}.OPS!pub", row)])
        graph.add_base_tuple("Dresden.K!pub", (1,))
        graph.add_derivation("J", ("Crete.OPS", ("E. coli", "t2", "AAA")), [
            ("Alaska.OPS!pub", row), ("Dresden.K!pub", (1,))
        ])
        for trusted, expected in (({"Alaska"}, 2), ({"Beijing"}, 2), ({"Dresden"}, 0)):
            group = TransactionGroup(candidate=candidate("t1"), members=(candidate("t1"),))
            assert group_priority(group, policy, SIGMA2, graph, trusted) == expected, trusted
        joined = TransactionGroup(candidate=candidate("t2"), members=(candidate("t2"),))
        assert group_priority(joined, policy, SIGMA2, graph, {"Alaska"}) == 0
        assert group_priority(joined, policy, SIGMA2, graph, {"Alaska", "Dresden"}) == 2


class ScanCountingGraph(ProvenanceGraph):
    """Counts the calls that walk every tuple of the graph."""

    scans = 0

    def base_variables(self):
        self.scans += 1
        return super().base_variables()

    def tuples(self):
        self.scans += 1
        return super().tuples()


def test_reconcile_scans_the_graph_once_for_many_groups():
    """With ``require_trusted_provenance`` each check evaluates its tuple's
    upstream cone; no ``reconcile`` call walks the whole graph, whatever the
    number of groups."""
    policy = TrustPolicy.trust_only("Crete", {"Beijing": 2}, others=0)
    policy.require_trusted_provenance = True
    graph = ScanCountingGraph()
    batch = []
    for index in range(12):
        # Even transactions relay Alaska's data under Beijing's name.
        publisher = ("Alaska", "Beijing")[index % 2]
        row = ("E. coli", f"t{index}", "AAA")
        graph.add_base_tuple(f"{publisher}.OPS!pub", row)
        graph.add_derivation("M", ("Crete.OPS", row), [(f"{publisher}.OPS!pub", row)])
        batch.append(candidate(f"t{index}"))
    reconciler = Reconciler(Peer("Crete", SIGMA2, policy))

    result = reconciler.reconcile(batch, provenance=graph)

    assert graph.scans == 0
    assert sorted(result.accepted) == sorted(f"t{index}" for index in range(1, 12, 2))
    assert sorted(result.rejected) == sorted(f"t{index}" for index in range(0, 12, 2))
    reconciler.reconcile([], provenance=graph)
    assert graph.scans == 0
