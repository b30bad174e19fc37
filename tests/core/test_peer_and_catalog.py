"""Unit tests for peers, the catalogue, and the logical clock."""

import tracemalloc

import pytest

from repro.core.catalog import Catalog
from repro.core.clock import LogicalClock, PeerClockState
from repro.core.mapping import identity_mapping, join_mapping
from repro.core.peer import Peer
from repro.core.schema import PeerSchema
from repro.core.trust import TrustPolicy
from repro.errors import MappingError, PeerError, TransactionError

SIGMA1 = PeerSchema.build(
    "Sigma1",
    {"O": ["org", "oid"], "P": ["prot", "pid"], "S": ["oid", "pid", "seq"]},
    {"O": ["org"], "S": ["oid", "pid"]},
)
SIGMA2 = PeerSchema.build("Sigma2", {"OPS": ["org", "prot", "seq"]}, {"OPS": ["org", "prot"]})


class TestPeer:
    def test_creates_relations(self):
        peer = Peer("Alaska", SIGMA1)
        assert peer.instance.relations() == {"O", "P", "S"}

    def test_empty_name_rejected(self):
        with pytest.raises(PeerError):
            Peer("", SIGMA1)

    def test_trust_owner_must_match(self):
        with pytest.raises(PeerError):
            Peer("Alaska", SIGMA1, TrustPolicy.trust_all("Beijing"))

    def test_commit_applies_and_logs(self):
        peer = Peer("Alaska", SIGMA1)
        transaction = peer.commit(peer.new_transaction().insert("O", ("E. coli", 1)))
        assert peer.instance.contains("O", ("E. coli", 1))
        assert len(peer.log) == 1
        assert peer.unpublished_transactions()[0].txn_id == transaction.txn_id

    def test_commit_validates_arity(self):
        peer = Peer("Alaska", SIGMA1)
        builder = peer.new_transaction().insert("O", ("E. coli",))
        with pytest.raises(Exception):
            peer.commit(builder)

    def test_commit_rejects_foreign_transaction(self):
        alaska = Peer("Alaska", SIGMA1)
        beijing = Peer("Beijing", SIGMA1)
        transaction = beijing.new_transaction().insert("O", ("x", 1)).build()
        with pytest.raises(TransactionError):
            alaska.commit(transaction)

    def test_modify_and_delete_track_producers(self):
        peer = Peer("Alaska", SIGMA1)
        first = peer.insert("S", (1, 10, "AAA"))
        assert peer.producer_of("S", (1, 10, "AAA")) == first.txn_id
        second = peer.modify("S", (1, 10, "AAA"), (1, 10, "BBB"))
        assert first.txn_id in second.antecedents
        assert peer.producer_of("S", (1, 10, "BBB")) == second.txn_id
        third = peer.delete("S", (1, 10, "BBB"))
        assert second.txn_id in third.antecedents
        assert peer.producer_of("S", (1, 10, "BBB")) is None

    def test_an_open_builder_sees_a_later_commit_as_antecedent(self):
        """A builder reads the producers when it deletes or modifies, not when
        it opens: a tuple another local commit inserted meanwhile still
        names that commit as an antecedent."""
        peer = Peer("Alaska", SIGMA1)
        deleting, modifying = peer.new_transaction(), peer.new_transaction()
        first = peer.insert("S", (1, 10, "AAA"))
        second = peer.insert("S", (2, 20, "CCC"))
        deleting.delete("S", (1, 10, "AAA"))
        modifying.modify("S", (2, 20, "CCC"), (2, 20, "GGG"))
        assert peer.commit(deleting).antecedents == frozenset({first.txn_id})
        assert peer.commit(modifying).antecedents == frozenset({second.txn_id})

    def test_opening_a_transaction_does_not_copy_the_producers(self):
        """Opening a builder at a peer holding 10 000 tuples allocates a few
        hundred bytes, not a copy of the producer map (about 300 KB)."""
        peer = Peer("Alaska", SIGMA1)
        builder = peer.new_transaction()
        for index in range(10_000):
            builder.insert("O", ("E. coli", index))
        peer.commit(builder)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            opened = peer.new_transaction()
            _retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert opened.txn_id
        assert peak <= 10_000

    def test_snapshot_and_tuples(self):
        peer = Peer("Alaska", SIGMA1)
        peer.insert("O", ("E. coli", 1))
        assert peer.tuples("O") == frozenset({("E. coli", 1)})
        assert peer.snapshot()["O"] == frozenset({("E. coli", 1)})

    def test_tuples_matching_probes_by_column(self):
        peer = Peer("Alaska", SIGMA1)
        peer.insert("S", (1, 10, "ATG"))
        peer.insert("S", (1, 11, "CCC"))
        peer.insert("S", (2, 10, "GGG"))
        assert peer.tuples_matching("S", 0, 1) == frozenset(
            {(1, 10, "ATG"), (1, 11, "CCC")}
        )
        assert peer.tuples_matching("S", 2, "GGG") == frozenset({(2, 10, "GGG")})
        assert peer.tuples_matching("S", 0, 99) == frozenset()

    def test_online_state(self):
        peer = Peer("Alaska", SIGMA1)
        assert peer.online
        peer.set_online(False)
        with pytest.raises(PeerError):
            peer.require_online("publish")

    def test_record_producer(self):
        peer = Peer("Alaska", SIGMA1)
        peer.record_producer("O", ("E. coli", 1), "txn-x")
        assert peer.producer_of("O", ("E. coli", 1)) == "txn-x"

    def test_transaction_ids_unique_per_peer(self):
        peer = Peer("Alaska", SIGMA1)
        first = peer.insert("O", ("a", 1))
        second = peer.insert("O", ("b", 2))
        assert first.txn_id != second.txn_id


class TestCatalog:
    def _catalog(self) -> Catalog:
        catalog = Catalog()
        catalog.add_peer(Peer("Alaska", SIGMA1))
        catalog.add_peer(Peer("Crete", SIGMA2))
        return catalog

    def test_duplicate_peer_rejected(self):
        catalog = self._catalog()
        with pytest.raises(PeerError):
            catalog.add_peer(Peer("Alaska", SIGMA1))

    def test_unknown_peer(self):
        catalog = self._catalog()
        with pytest.raises(PeerError):
            catalog.peer("Missing")
        assert not catalog.has_peer("Missing")

    def test_add_mapping_validates(self):
        catalog = self._catalog()
        mapping = join_mapping(
            "M_AC", "Alaska", "Crete",
            "OPS(org, prot, seq)",
            ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
        )
        catalog.add_mapping(mapping)
        assert catalog.mapping("M_AC") is mapping
        assert catalog.mappings_from("Alaska") == [mapping]
        assert catalog.mappings_into("Crete") == [mapping]

    def test_duplicate_mapping_rejected(self):
        catalog = self._catalog()
        mappings = identity_mapping("M", "Alaska", "Alaska", SIGMA1.relations)
        catalog.add_mappings(mappings)
        with pytest.raises(MappingError):
            catalog.add_mapping(mappings[0])

    def test_invalid_mapping_rejected(self):
        catalog = self._catalog()
        bad = join_mapping("M_bad", "Alaska", "Crete", "OPS(a, b)", ["O(a, b)"])
        with pytest.raises(MappingError):
            catalog.add_mapping(bad)

    def test_unknown_mapping(self):
        catalog = self._catalog()
        with pytest.raises(MappingError):
            catalog.mapping("Missing")

    def test_mapping_graph(self):
        catalog = Catalog()
        for name in ("A", "B", "C"):
            catalog.add_peer(Peer(name, SIGMA2))
        catalog.add_mappings(identity_mapping("M_AB", "A", "B", SIGMA2.relations))
        catalog.add_mappings(identity_mapping("M_BC", "B", "C", SIGMA2.relations))
        graph = catalog.mapping_graph()
        assert graph["A"] == {"B"}


class TestClocks:
    def test_logical_clock_ticks(self):
        clock = LogicalClock()
        assert clock.value == 0
        assert clock.tick() == 1
        assert clock.tick() == 2
        assert int(clock) == 2

    def test_peer_clock_state(self):
        state = PeerClockState()
        state.record_publication(3)
        state.record_publication(2)
        state.record_reconciliation(5)
        assert state.last_published_epoch == 3
        assert state.last_reconciled_epoch == 5
