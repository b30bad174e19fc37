"""Unit tests for the simulated P2P substrate: store and network."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import xor_checksum
from repro.core.transactions import Transaction
from repro.core.updates import Update
from repro.errors import NetworkError, PublicationError
from repro.obs import MetricsRegistry, validate_metric_keys
from repro.p2p.gossip import GossipCoordinator
from repro.p2p.network import LatencyModel, Network
from repro.p2p.store import EpochLog, PublishedTransaction, UpdateStore

from message_rows import recorded_rows


def txn(txn_id: str, peer: str = "Alaska") -> Transaction:
    return Transaction(txn_id, peer, (Update.insert("R", (txn_id,), origin=peer),))


class TestUpdateStore:
    def test_archive_and_retrieve(self):
        store = UpdateStore()
        store.archive([txn("t1"), txn("t2")], epoch=1, publisher="Alaska")
        assert len(store) == 2
        assert store.contains("t1")
        assert store.entry("t1").epoch == 1
        assert store.entry("t1").transaction.epoch == 1
        assert store.latest_epoch() == 1

    def test_duplicate_publication_rejected(self):
        store = UpdateStore()
        store.archive([txn("t1")], epoch=1, publisher="Alaska")
        with pytest.raises(PublicationError):
            store.archive([txn("t1")], epoch=2, publisher="Alaska")

    def test_wrong_publisher_rejected(self):
        store = UpdateStore()
        with pytest.raises(PublicationError):
            store.archive([txn("t1", peer="Beijing")], epoch=1, publisher="Alaska")

    def test_published_since(self):
        store = UpdateStore()
        store.archive([txn("t1")], epoch=1, publisher="Alaska")
        store.archive([txn("t2", "Beijing")], epoch=2, publisher="Beijing")
        store.archive([txn("t3")], epoch=3, publisher="Alaska")
        since_one = store.published_since(1)
        assert [entry.txn_id for entry in since_one] == ["t2", "t3"]

    def test_unknown_entry(self):
        store = UpdateStore()
        with pytest.raises(PublicationError):
            store.entry("missing")

    def test_antecedents_map(self):
        store = UpdateStore()
        dependent = Transaction(
            "t2", "Alaska", (Update.insert("R", (2,), origin="Alaska"),), frozenset({"t1"})
        )
        store.archive([txn("t1"), dependent], epoch=1, publisher="Alaska")
        assert store.antecedents_map() == {"t1": frozenset(), "t2": frozenset({"t1"})}

    def test_failed_batch_archives_nothing(self):
        """Regression: a PublicationError mid-batch must not leave earlier
        transactions of the batch behind — publication is atomic."""
        store = UpdateStore()
        store.archive([txn("t0")], epoch=1, publisher="Alaska")
        with pytest.raises(PublicationError):
            # t1 is fine, t0 is a duplicate: the whole batch must be refused.
            store.archive([txn("t1"), txn("t0")], epoch=2, publisher="Alaska")
        assert len(store) == 1
        assert not store.contains("t1")
        with pytest.raises(PublicationError):
            # Wrong-publisher transaction after a valid one: same contract.
            store.archive([txn("t2"), txn("t3", peer="Beijing")], epoch=2, publisher="Alaska")
        assert len(store) == 1
        assert not store.contains("t2")

    def test_duplicate_within_batch_rejected_atomically(self):
        store = UpdateStore()
        with pytest.raises(PublicationError):
            store.archive([txn("t1"), txn("t1")], epoch=1, publisher="Alaska")
        assert len(store) == 0

    def test_epoch_must_not_regress(self):
        store = UpdateStore()
        store.archive([txn("t1")], epoch=5, publisher="Alaska")
        with pytest.raises(PublicationError):
            store.archive([txn("t2")], epoch=4, publisher="Alaska")
        # Equal epochs are fine (several publishers can share one epoch).
        store.archive([txn("t3")], epoch=5, publisher="Alaska")

    def test_indexed_queries_match_naive_scans(self):
        """Parity: the bisect index answers exactly like the original O(n)
        list scan, across a randomized archive."""
        import random

        rng = random.Random(7)
        store = UpdateStore()
        entries = []
        epoch = 0
        publishers = ["Alaska", "Beijing", "Crete"]
        for batch in range(40):
            epoch += rng.randint(0, 2)
            publisher = rng.choice(publishers)
            batch_txns = [
                txn(f"b{batch}-t{i}", publisher) for i in range(rng.randint(1, 3))
            ]
            entries.extend(store.archive(batch_txns, epoch=epoch, publisher=publisher))
        assert [e.txn_id for e in store.all_entries()] == [e.txn_id for e in entries]
        for probe in range(-1, epoch + 2):
            assert store.published_since(probe) == [e for e in entries if e.epoch > probe]


class TestNetwork:
    def test_register_and_connectivity(self):
        network = Network(["A", "B"])
        assert network.peers() == {"A", "B"}
        assert network.is_online("A")
        network.disconnect("A")
        assert not network.is_online("A")
        assert network.online_peers() == {"B"}
        network.connect("A")
        assert network.is_online("A")

    def test_duplicate_registration_rejected(self):
        network = Network(["A"])
        with pytest.raises(NetworkError):
            network.register("A")

    def test_unknown_peer_rejected(self):
        network = Network()
        with pytest.raises(NetworkError):
            network.is_online("ghost")

    def test_require_online(self):
        network = Network(["A"])
        network.disconnect("A")
        with pytest.raises(NetworkError):
            network.require_online("A", "publish")

    def test_only_changes_are_events(self):
        network = Network(["A"])
        network.connect("A")  # already online: no event
        network.disconnect("A")
        network.disconnect("A")  # no change: no event
        assert network.churn_stats()["events"] == 1
        assert network.availability() == {"A": False}

    def test_churn_stats_count_every_change(self):
        network = Network(["A", "B"])
        for _ in range(5):
            network.disconnect("A")
            network.connect("A")
        network.disconnect("B")
        assert network.churn_stats() == {
            "events": 11,
            "connects": 5,
            "disconnects": 6,
            "per_peer": {
                "A": {"connects": 5, "disconnects": 5},
                "B": {"connects": 0, "disconnects": 1},
            },
        }

    def test_the_network_keeps_no_event_trace(self):
        with pytest.raises(TypeError):
            Network(["A"], trace_limit=4)  # type: ignore[call-arg]
        network = Network(["A"])
        assert not hasattr(network, "trace")
        assert not hasattr(network, "message_trace")

    def test_listeners_observe_connectivity_changes(self):
        network = Network(["A", "B"])
        seen = []

        def listener(event):
            seen.append((event.peer, event.online))

        network.subscribe(listener)
        network.disconnect("A")
        network.disconnect("A")  # no change: no notification
        network.connect("A")
        assert seen == [("A", False), ("A", True)]
        network.unsubscribe(listener)
        network.disconnect("B")
        assert len(seen) == 2


def published(txn_id: str, epoch: int, sequence: int, peer: str = "Alaska") -> PublishedTransaction:
    return PublishedTransaction(txn(txn_id, peer), epoch, sequence, peer)


class TestEpochLogSince:
    """Bisection edge cases for the epoch cursor, against a linear scan."""

    def _log(self, positions) -> EpochLog:
        log = EpochLog()
        for i, (epoch, sequence) in enumerate(positions):
            log.add(published(f"t{i}", epoch, sequence))
        return log

    def test_empty_log(self):
        log = EpochLog()
        assert log.since(0) == []
        assert log.since(7) == []
        assert log.latest_epoch() == 0

    def test_cursor_at_latest_epoch_returns_nothing(self):
        log = self._log([(1, 0), (2, 1), (3, 2)])
        assert log.since(log.latest_epoch()) == []

    def test_cursor_past_the_end(self):
        log = self._log([(1, 0), (2, 1)])
        assert log.since(99) == []

    def test_epoch_boundary_is_exclusive(self):
        log = self._log([(1, 0), (2, 1), (3, 2)])
        assert [e.epoch for e in log.since(1)] == [2, 3]
        assert [e.epoch for e in log.since(0)] == [1, 2, 3]

    def test_shared_epochs_stay_together(self):
        # Multiple entries in the same epoch: a cursor at that epoch skips
        # every one of them; a cursor just below returns every one of them.
        log = self._log([(1, 0), (2, 1), (2, 2), (2, 3), (5, 4)])
        assert [e.sequence for e in log.since(1)] == [1, 2, 3, 4]
        assert [e.sequence for e in log.since(2)] == [4]

    def test_out_of_order_backfill_keeps_cursor_correct(self):
        log = self._log([(1, 0), (5, 3)])
        log.add(published("late", 3, 1))  # anti-entropy back-fill
        assert [e.epoch for e in log.since(2)] == [3, 5]

    def test_since_matches_linear_scan_on_random_logs(self):
        rng = random.Random(20260808)
        for _ in range(50):
            count = rng.randrange(0, 40)
            positions = [(rng.randrange(1, 12), sequence) for sequence in range(count)]
            rng.shuffle(positions)
            log = self._log(positions)
            entries = log.entries()
            for cursor in range(0, 14):
                expected = [e for e in entries if e.epoch > cursor]
                assert log.since(cursor) == expected


class TestEpochLogSet:
    """The one entry set of the p2p layer under any arrival order."""

    @settings(max_examples=80, deadline=None)
    @given(
        epochs=st.lists(st.integers(1, 6), max_size=24).map(sorted),
        data=st.data(),
    )
    def test_random_arrival_keeps_canonical_order_and_summary(self, epochs, data):
        """Entries arrive in random order, some twice, some at epochs older
        than the log's latest (the anti-entropy back-fill path), with the
        summary read at random points between them; the log serves every
        cursor in canonical order, counts each entry once, and keeps the
        summary a log built fresh from the same entries has."""
        # Sequences follow epochs, as in the archive.
        entries = [published(f"t{i}", epoch, i) for i, epoch in enumerate(epochs)]
        arrival = data.draw(
            st.lists(st.sampled_from(entries), max_size=3 * len(entries))
            if entries else st.just([])
        )
        log = EpochLog()
        added = []
        for entry in arrival:
            added.append(log.add(entry))
            if data.draw(st.booleans()):
                log.compact_clock()  # a read between adds folds in what came
        held = sorted(set(arrival), key=lambda entry: (entry.epoch, entry.sequence))
        assert sum(added) == len(log) == len(held)
        fresh = EpochLog()
        for entry in held:
            fresh.add(entry)
        assert log.compact_clock() == fresh.compact_clock()
        assert log.checksum == xor_checksum(entry.digest for entry in held)
        assert log.entries() == held
        for cursor in range(0, 8):
            assert log.since(cursor) == [entry for entry in held if entry.epoch > cursor]
        assert log.entries_for(entry.digest for entry in held) == sorted(
            held, key=lambda entry: entry.digest
        )


class TestMessageAccounting:
    """Traffic counters on the metrics registry; rows through the recorder."""

    def test_counters_and_rows(self):
        network = Network(["A", "B"])
        rows = recorded_rows(network)
        network.record_message("A", "B", "sketch", 100)
        network.record_message("B", "A", "entries", 40)
        stats = network.message_stats()
        assert stats == {
            "messages": 2,
            "bytes": 140,
            "per_peer": {
                "A": {"sent": 1, "received": 1, "bytes_sent": 100, "bytes_received": 40},
                "B": {"sent": 1, "received": 1, "bytes_sent": 40, "bytes_received": 100},
            },
        }
        assert rows == [("A", "B", "sketch", 100), ("B", "A", "entries", 40)]

    def test_transmit_is_accounted_through_record_messages(self):
        network = Network(["A", "B"])
        network.set_latency_model(LatencyModel(seed=1))
        rows = recorded_rows(network)
        delay = network.transmit("A", "B", "batch", 500)
        assert rows == [("A", "B", "batch", 500)]
        assert delay > 0 and network.clock.now == delay
        assert network.message_stats()["bytes"] == 500

    def test_unregistered_participants_are_allowed(self):
        # The archive is a store, not a peer, but its traffic is accounted.
        network = Network(["A"])
        network.record_message("A", "#archive", "challenge", 24)
        assert network.message_stats()["per_peer"]["#archive"]["received"] == 1

    def test_negative_size_rejected(self):
        network = Network(["A", "B"])
        with pytest.raises(NetworkError):
            network.record_message("A", "B", "sketch", -1)

    def test_a_batch_records_like_one_call_per_row(self):
        rows = [
            ("A", "B", "challenge", 48), ("B", "A", "challenge", 48),
            ("A", "#archive", "sketch", 100), ("B", "A", "batch", 0),
            ("A", "B", "clock", 40),
        ]
        batched, one_by_one = Network(["A", "B"]), Network(["A", "B"])
        batched.record_message("B", "A", "clock", 7)
        one_by_one.record_message("B", "A", "clock", 7)
        batched.record_messages(rows)
        for row in rows:
            one_by_one.record_message(*row)
        assert batched.message_stats() == one_by_one.message_stats()
        assert batched.obs.metrics.snapshot() == one_by_one.obs.metrics.snapshot()

    def test_a_negative_size_rejects_the_whole_batch(self):
        network = Network(["A", "B"])
        with pytest.raises(NetworkError):
            network.record_messages([("A", "B", "sketch", 10), ("B", "A", "batch", -1)])
        assert network.obs.metrics.snapshot() == {}
        assert network.message_stats()["messages"] == 0

    def test_totals_count_every_message(self):
        network = Network(["A", "B"])
        for _ in range(12):
            network.record_message("A", "B", "entries", 10)
        stats = network.message_stats()
        assert stats["messages"] == 12
        assert stats["bytes"] == 120
        assert stats["per_peer"]["B"]["received"] == 12

    def test_message_and_connectivity_counts_are_independent(self):
        network = Network(["A", "B"])
        network.disconnect("A")
        network.connect("A")
        for _ in range(4):
            network.record_message("A", "B", "entries", 5)
        assert network.churn_stats()["events"] == 2
        assert network.message_stats()["messages"] == 4

    def test_a_seeded_gossip_run_accounts_like_per_series_adds(self):
        """After a seeded gossip run: totals are the sums of the per-peer
        rows, the label-key cache holds one entry per participant name (no
        pair keys), and the registry has exactly the series — and values —
        four ``counter_add(name, value, label=...)`` calls per message
        would have left."""
        rng = random.Random(5)
        names = [f"P{index}" for index in range(6)]
        network = Network(names)
        sent = recorded_rows(network)
        store = UpdateStore()
        coordinator = GossipCoordinator(network, store, fanout=2)
        for name in names:
            coordinator.register_peer(name)
        for epoch in range(1, 9):
            network.set_online(names[rng.randrange(1, 6)], rng.random() < 0.5)
            store.archive([txn(f"g{epoch}", "P0")], epoch=epoch, publisher="P0")
            coordinator.run_until_converged()

        stats = network.message_stats()
        rows = stats["per_peer"].values()
        assert stats["messages"] == sum(row["sent"] for row in rows)
        assert stats["messages"] == sum(row["received"] for row in rows)
        assert stats["bytes"] == sum(row["bytes_sent"] for row in rows)
        assert stats["bytes"] == sum(row["bytes_received"] for row in rows)

        assert set(network._traffic_keys) == set(stats["per_peer"])
        assert all(isinstance(name, str) for name in network._traffic_keys)

        replayed = MetricsRegistry()
        for sender, receiver, _, size in sent:
            replayed.counter_add("net.messages.sent", 1, label=sender)
            replayed.counter_add("net.bytes.sent", size, label=sender)
            replayed.counter_add("net.messages.received", 1, label=receiver)
            replayed.counter_add("net.bytes.received", size, label=receiver)
        snapshot = network.obs.metrics.snapshot()
        traffic = {key: value for key, value in snapshot.items() if key.startswith("net.")}
        assert traffic == replayed.snapshot()
        assert validate_metric_keys(snapshot) == []
