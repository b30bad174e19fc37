"""Integration tests for the CDSS facade (publish / reconcile / resolve)."""

import pytest

from repro import CDSS, ExchangeConfig, PeerSchema, SystemConfig
from repro.core.mapping import join_mapping
from repro.errors import NetworkError, PeerError
from repro.reconcile.decisions import Decision


class TestBasicFlow:
    def test_publish_then_reconcile_moves_data(self, two_peer_system):
        cdss = two_peer_system
        source, target = cdss.peer("Source"), cdss.peer("Target")
        source.insert("R", (1, "a"))
        publish = cdss.publish("Source")
        assert len(publish.published) == 1
        assert publish.translated_changes > 0

        outcome = cdss.reconcile("Target")
        assert len(outcome.accepted) == 1
        assert target.instance.contains("R", (1, "a"))

    def test_publish_without_pending_is_noop(self, two_peer_system):
        outcome = two_peer_system.publish("Source")
        assert outcome.published == []

    def test_reconcile_without_publications(self, two_peer_system):
        outcome = two_peer_system.reconcile("Target")
        assert outcome.candidates_considered == 0

    def test_reconcile_is_incremental_across_epochs(self, two_peer_system):
        cdss = two_peer_system
        source = cdss.peer("Source")
        source.insert("R", (1, "a"))
        cdss.publish("Source")
        first = cdss.reconcile("Target")
        source.insert("R", (2, "b"))
        cdss.publish("Source")
        second = cdss.reconcile("Target")
        assert first.candidates_considered == 1
        assert second.candidates_considered == 1
        assert cdss.peer("Target").instance.count("R") == 2

    def test_epoch_advances_on_each_operation(self, two_peer_system):
        cdss = two_peer_system
        start = cdss.clock.value
        cdss.peer("Source").insert("R", (1, "a"))
        cdss.publish("Source")
        cdss.reconcile("Target")
        assert cdss.clock.value == start + 2

    def test_unknown_peer_rejected(self, two_peer_system):
        with pytest.raises(PeerError):
            two_peer_system.publish("Nobody")

    def test_statistics(self, two_peer_system):
        cdss = two_peer_system
        cdss.peer("Source").insert("R", (1, "a"))
        cdss.publish("Source")
        stats = cdss.statistics()
        assert stats["peers"] == 2
        assert stats["published_transactions"] == 1
        assert stats["provenance_derivations"] > 0


class TestTrustAndConflicts:
    def test_untrusted_source_rejected(self, untrusting_target_system):
        cdss = untrusting_target_system
        cdss.peer("Source").insert("R", (1, "a"))
        cdss.publish("Source")
        outcome = cdss.reconcile("Target")
        assert len(outcome.rejected) == 1
        assert cdss.peer("Target").instance.count("R") == 0

    def test_resolve_conflict_through_facade(self, figure2):
        cdss = figure2.cdss
        for peer, seq in ((figure2.alaska, "AAA"), (figure2.beijing, "BBB")):
            builder = peer.new_transaction()
            builder.insert("O", ("S. cerevisiae", 5))
            builder.insert("P", ("hsp70", 14))
            builder.insert("S", (5, 14, seq))
            peer.commit(builder)
        cdss.publish("Alaska")
        cdss.publish("Beijing")
        outcome = cdss.reconcile("Dresden")
        assert len(outcome.deferred) == 2
        conflicts = cdss.open_conflicts("Dresden")
        assert len(conflicts) == 1
        winner = sorted(conflicts[0].txn_ids)[0]
        resolution = cdss.resolve_conflict("Dresden", winner)
        assert winner in resolution.accepted
        assert not cdss.open_conflicts("Dresden")


class TestConnectivity:
    def test_offline_peer_cannot_publish(self, two_peer_system):
        cdss = two_peer_system
        cdss.set_online("Source", False)
        cdss.peer("Source").insert("R", (1, "a"))
        with pytest.raises(NetworkError):
            cdss.publish("Source")

    def test_offline_peer_cannot_reconcile(self, two_peer_system):
        cdss = two_peer_system
        cdss.set_online("Target", False)
        with pytest.raises(NetworkError):
            cdss.reconcile("Target")

    def test_data_survives_publisher_disconnection(self, two_peer_system):
        cdss = two_peer_system
        cdss.peer("Source").insert("R", (1, "a"))
        cdss.publish("Source")
        cdss.set_online("Source", False)
        outcome = cdss.reconcile("Target")
        assert len(outcome.accepted) == 1


class TestImportAndConfiguration:
    def test_import_existing_data(self, two_peer_system):
        cdss = two_peer_system
        source = cdss.peer("Source")
        source.instance.insert_many("R", [(1, "a"), (2, "b")])
        transaction = cdss.import_existing_data("Source")
        assert transaction is not None
        assert len(transaction.updates) == 2
        cdss.publish("Source")
        cdss.reconcile("Target")
        assert cdss.peer("Target").instance.count("R") == 2

    def test_import_empty_instance(self, two_peer_system):
        assert two_peer_system.import_existing_data("Source") is None

    def test_provenance_disabled_configuration(self):
        config = SystemConfig(exchange=ExchangeConfig(track_provenance=False))
        cdss = CDSS(config)
        cdss.add_peer("Source", PeerSchema.build("S", {"R": ["a", "b"]}, {"R": ["a"]}))
        cdss.add_peer("Target", PeerSchema.build("T", {"R": ["a", "b"]}, {"R": ["a"]}))
        cdss.add_mapping(join_mapping("M", "Source", "Target", "R(a, b)", ["R(a, b)"]))
        cdss.peer("Source").insert("R", (1, "a"))
        cdss.publish("Source")
        outcome = cdss.reconcile("Target")
        assert len(outcome.accepted) == 1
        assert cdss.peer("Target").instance.contains("R", (1, "a"))

    def test_own_transactions_marked_accepted_at_origin(self, two_peer_system):
        cdss = two_peer_system
        transaction = cdss.peer("Source").insert("R", (1, "a"))
        cdss.publish("Source")
        cdss.reconcile("Source")
        state = cdss.reconciliation_state("Source")
        assert state.decision(transaction.txn_id) is Decision.ACCEPTED

    def test_late_mapping_addition_rebuilds_engine(self, two_peer_system):
        cdss = two_peer_system
        cdss.peer("Source").insert("R", (1, "a"))
        cdss.publish("Source")
        # Adding a peer + mapping after publication forces an engine rebuild
        # that replays the archive.
        cdss.add_peer("Third", PeerSchema.build("U", {"R": ["a", "b"]}, {"R": ["a"]}))
        cdss.add_mapping(join_mapping("M_T3", "Target", "Third", "R(a, b)", ["R(a, b)"]))
        outcome = cdss.reconcile("Third")
        assert len(outcome.accepted) == 1
        assert cdss.peer("Third").instance.contains("R", (1, "a"))
