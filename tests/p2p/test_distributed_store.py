"""The sharded, replicated distributed update store.

Covers the ring (deterministic segment placement), API parity with the
centralized archive on identical publication streams, quorum behaviour and
degraded writes, re-replication after hosts disconnect, gossip catch-up for
reconnecting peers, and the k-1 replica-loss durability guarantee.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from repro import CDSS
from repro.config import StoreConfig
from repro.core.transactions import Transaction
from repro.core.updates import Update
from repro.errors import ConfigurationError, PublicationError, QuorumError
from repro.p2p.distributed import (
    ConsistentHashRing,
    DistributedUpdateStore,
    ShardReplica,
    store_from_config,
)
from repro.p2p.gossip import GossipCoordinator
from repro.p2p.network import Network
from repro.p2p.reconcile import StoreView
from repro.p2p.store import UpdateStore

from replica_census import census_problems


def txn(txn_id: str, peer: str = "A") -> Transaction:
    return Transaction(txn_id, peer, (Update.insert("R", (txn_id,), origin=peer),))


def make_store(peers, **kwargs) -> tuple[Network, DistributedUpdateStore]:
    network = Network(peers)
    return network, DistributedUpdateStore(network, **kwargs)


class TestConsistentHashRing:
    def test_placement_is_deterministic(self):
        left = ConsistentHashRing(8)
        right = ConsistentHashRing(8)
        assert [left.shard_for(s) for s in range(100)] == [
            right.shard_for(s) for s in range(100)
        ]

    def test_segments_spread_over_shards(self):
        ring = ConsistentHashRing(4)
        used = {ring.shard_for(segment) for segment in range(200)}
        assert used == {0, 1, 2, 3}

    def test_single_shard_takes_everything(self):
        ring = ConsistentHashRing(1)
        assert {ring.shard_for(segment) for segment in range(20)} == {0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(0)


class TestApiParity:
    """Same publication stream => identical answers from both stores."""

    def run_stream(self, seed: int, shard_count: int):
        rng = random.Random(seed)
        peers = ["A", "B", "C", "D"]
        _, distributed = make_store(
            peers, shard_count=shard_count, replication_factor=2, segment_size=2
        )
        centralized = UpdateStore()
        epoch = 0
        for batch in range(30):
            epoch += rng.randint(1, 2)
            publisher = rng.choice(peers)
            transactions = [
                txn(f"s{seed}-b{batch}-t{i}", publisher)
                for i in range(rng.randint(1, 3))
            ]
            centralized.archive(transactions, epoch, publisher)
            distributed.archive(transactions, epoch, publisher)
        return centralized, distributed, epoch, peers

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shard_count", [1, 4, 16])
    def test_reads_match_centralized(self, seed, shard_count):
        centralized, distributed, epoch, peers = self.run_stream(seed, shard_count)
        assert len(distributed) == len(centralized)
        assert distributed.latest_epoch() == centralized.latest_epoch()
        assert distributed.all_entries() == centralized.all_entries()
        assert distributed.antecedents_map() == centralized.antecedents_map()
        for probe in range(0, epoch + 1):
            assert distributed.published_since(probe) == centralized.published_since(probe)
        sample = centralized.all_entries()[len(centralized) // 2]
        assert distributed.contains(sample.txn_id)
        assert distributed.entry(sample.txn_id) == sample
        assert not distributed.contains("ghost")
        with pytest.raises(PublicationError):
            distributed.entry("ghost")

    def test_parity_survives_churn(self):
        """Disconnect/reconnect cycles between batches must not change what a
        full quorum read returns once everyone is back online."""
        rng = random.Random(99)
        peers = ["A", "B", "C", "D"]
        network, distributed = make_store(
            peers, shard_count=4, replication_factor=2, segment_size=1
        )
        centralized = UpdateStore()
        epoch = 0
        offline = None
        for batch in range(40):
            epoch += 1
            if offline is not None:
                network.connect(offline)
                offline = None
            if rng.random() < 0.4:
                offline = rng.choice(peers)
                network.disconnect(offline)
            publisher = rng.choice([p for p in peers if p != offline])
            transactions = [txn(f"c{batch}", publisher)]
            centralized.archive(transactions, epoch, publisher)
            distributed.archive(transactions, epoch, publisher)
        if offline is not None:
            network.connect(offline)
        assert distributed.all_entries() == centralized.all_entries()
        assert distributed.under_replicated() == {}


class TestAtomicity:
    def test_failed_batch_archives_nothing(self):
        _, store = make_store(["A", "B"])
        store.archive([txn("t0")], epoch=1, publisher="A")
        with pytest.raises(PublicationError):
            store.archive([txn("t1"), txn("t0")], epoch=2, publisher="A")
        assert len(store) == 1
        assert not store.contains("t1")

    def test_wrong_publisher_rejected_atomically(self):
        _, store = make_store(["A", "B"])
        with pytest.raises(PublicationError):
            store.archive([txn("t1"), txn("t2", peer="B")], epoch=1, publisher="A")
        assert len(store) == 0

    def test_epoch_must_not_regress(self):
        _, store = make_store(["A", "B"])
        store.archive([txn("t1")], epoch=5, publisher="A")
        with pytest.raises(PublicationError):
            store.archive([txn("t2")], epoch=4, publisher="A")

    def test_duplicate_rejected_even_when_holders_are_offline(self):
        """Duplicate detection is exact coordinator metadata: a txn_id whose
        replicas are all unreachable is still a duplicate, not a fresh id."""
        network, store = make_store(
            ["A", "B"], shard_count=4, replication_factor=1, segment_size=1
        )
        store.archive([txn("t1")], epoch=1, publisher="A")
        shard = next(iter(store._shard_sequences))
        holder = store.replica_hosts(shard)[0]
        network.disconnect(holder)
        assert store.contains("t1")  # archived, even though unreachable
        assert not store.retrievable("t1")
        with pytest.raises(PublicationError):
            store.archive([txn("t1")], epoch=9, publisher="A")
        with pytest.raises(QuorumError):
            store.entry("t1")  # archived but every holder offline
        network.connect(holder)
        assert store.retrievable("t1")
        assert store.entry("t1").txn_id == "t1"


class TestQuorum:
    def test_degraded_write_when_quorum_unreachable(self):
        network, store = make_store(
            ["A", "B"], shard_count=1, replication_factor=2, write_quorum=2
        )
        store.archive([txn("t1")], epoch=1, publisher="A")
        assert store.health()["degraded_writes"] == 0
        network.disconnect("B")
        # Only one peer is online: no replacement host exists, so the write
        # lands on a single replica and is recorded as degraded, not refused.
        store.archive([txn("t2")], epoch=2, publisher="A")
        assert store.health()["degraded_writes"] == 1
        assert store.contains("t2")

    def test_unreachable_shard_raises_quorum_error(self):
        network, store = make_store(["A", "B"], shard_count=1, replication_factor=2)
        store.archive([txn("t1")], epoch=1, publisher="A")
        network.disconnect("A")
        network.disconnect("B")
        with pytest.raises(QuorumError):
            store.published_since(0)
        with pytest.raises(QuorumError):
            store.archive([txn("t2")], epoch=2, publisher="A")

    def test_reads_prefer_complete_replicas(self):
        """A freshly added (still catching-up) quorum member must not shadow
        entries that a complete replica holds."""
        network, store = make_store(
            ["A", "B", "C"], shard_count=1, replication_factor=2, read_quorum=1
        )
        store.archive([txn("t1")], epoch=1, publisher="A")
        hosts = store.replica_hosts(0)
        network.disconnect(hosts[0])  # triggers re-replication onto the third peer
        assert len(store.published_since(0)) == 1
        network.connect(hosts[0])
        assert len(store.published_since(0)) == 1


class TestCatchUpReads:
    """A caught-up mirror's refresh reads only the shards that can answer."""

    def mirrored(self, **kwargs):
        network, store = make_store(
            ["A", "B", "C", "D"], shard_count=8, segment_size=1, **kwargs
        )
        epoch = 0
        while store.health()["active_shards"] < 8:
            epoch += 1
            store.archive([txn(f"t{epoch}")], epoch=epoch, publisher="A")
        view = StoreView(store)
        view.refresh()
        assert len(view) == len(store)
        return network, store, view

    def test_idle_refresh_reads_at_most_the_newest_shards(self):
        network, _, view = self.mirrored(replication_factor=2)
        metrics = network.obs.metrics
        before = metrics.counter_value("store.quorum.reads")
        view.refresh()
        assert metrics.counter_value("store.quorum.reads") - before <= 2

    def test_refresh_picks_up_a_late_batch_on_an_old_shard_epoch(self):
        _, store, view = self.mirrored(replication_factor=2)
        store.archive([txn("late")], epoch=store.latest_epoch(), publisher="A")
        view.refresh()
        assert len(view) == len(store)

    def test_idle_refresh_still_fails_on_a_wholly_unreachable_old_shard(self):
        """The cursor is past everything the lost shard holds, and the read
        must fail all the same: "nothing new" from a shard nobody can see is
        not an answer."""
        network, store, view = self.mirrored(replication_factor=1)
        self.lose_an_old_shard(network, store)
        with pytest.raises(QuorumError):
            view.refresh()

    def lose_an_old_shard(self, network, store) -> str:
        """Disconnect the only host of a shard the newest epoch is not on."""
        newest = store.shard_of_epoch(store.latest_epoch())
        (lost_host,) = next(
            store.replica_hosts(shard)
            for shard in range(8)
            if store.replica_hosts(shard) != store.replica_hosts(newest)
        )
        network.disconnect(lost_host)
        return lost_host

    def test_every_refresh_fails_while_a_shard_is_unreachable(self):
        """A failed read records no generation, so the next refresh at the
        same generation reads again and fails again, not just the first."""
        network, store, view = self.mirrored(replication_factor=1)
        self.lose_an_old_shard(network, store)
        for _ in range(3):
            with pytest.raises(QuorumError):
                view.refresh()

    def test_every_gossip_catch_up_and_phase_fails_while_a_shard_is_unreachable(self):
        network, store = make_store(
            ["A", "B", "C", "D"], shard_count=8, segment_size=1, replication_factor=1
        )
        coordinator = GossipCoordinator(network, store, fanout=2)
        for name in "ABCD":
            coordinator.register_peer(name)
        epoch = 0
        while store.health()["active_shards"] < 8:
            epoch += 1
            store.archive([txn(f"t{epoch}")], epoch=epoch, publisher="A")
        coordinator.run_until_converged()
        lost_host = self.lose_an_old_shard(network, store)
        online = sorted(set("ABCD") - {lost_host})
        for _ in range(2):
            for name in online:
                with pytest.raises(QuorumError):
                    coordinator.catch_up(name)
            with pytest.raises(QuorumError):
                coordinator.run_until_converged()

    def test_an_idle_refresh_reads_nothing_until_the_generation_moves(self, monkeypatch):
        network, store, view = self.mirrored(replication_factor=2)
        reads = []
        real = store.published_since
        monkeypatch.setattr(
            store, "published_since", lambda *args: reads.append(args) or real(*args)
        )
        view.refresh()
        assert reads == []
        generation = store.generation
        network.set_online("D", False)  # reachability changed: a real re-read
        assert store.generation > generation
        view.refresh()
        assert len(reads) == 1
        view.refresh()
        assert len(reads) == 1
        store.archive([txn("late")], epoch=store.latest_epoch(), publisher="A")
        view.refresh()
        assert len(reads) == 2 and len(view) == len(store)

    def test_anti_entropy_moves_the_generation(self):
        _, store = make_store(["A", "B"], shard_count=1, segment_size=1)
        generation = store.generation
        store.anti_entropy()
        assert store.generation > generation


class TestChurnTolerance:
    def test_re_replication_restores_factor(self):
        network, store = make_store(
            ["A", "B", "C", "D"], shard_count=2, replication_factor=2, segment_size=1
        )
        for epoch in range(1, 9):
            store.archive([txn(f"t{epoch}")], epoch=epoch, publisher="A")
        victim = store.replica_hosts(0)[0]
        network.disconnect(victim)
        health = store.health()
        assert health["re_replications"] >= 1
        for shard_info in health["per_shard"]:
            assert shard_info["online_replicas"] >= 2
        assert len(store.all_entries()) == 8

    def test_reconnecting_peer_catches_up_via_anti_entropy(self):
        network, store = make_store(
            ["A", "B"], shard_count=1, replication_factor=2, segment_size=1
        )
        store.archive([txn("t1")], epoch=1, publisher="A")
        network.disconnect("B")
        store.archive([txn("t2")], epoch=2, publisher="A")
        store.archive([txn("t3")], epoch=3, publisher="A")
        # B's replica is stale while offline.
        assert store.under_replicated() != {}
        assert census_problems(store) == []
        network.connect("B")
        # The reconnect listener ran a gossip round: clocks agree again.
        assert store.under_replicated() == {}
        first, *others = store._replicas[0]
        assert others and all(
            first.compact_clock().agrees_with(other.compact_clock()) for other in others
        )
        assert len(store.all_entries()) == 3

    def test_losing_k_minus_one_replicas_loses_nothing(self):
        network, store = make_store(
            ["A", "B", "C", "D", "E"], shard_count=3, replication_factor=3,
            segment_size=1,
        )
        for epoch in range(1, 13):
            store.archive([txn(f"t{epoch}")], epoch=epoch, publisher="A")
        entries = store.all_entries()
        assert len(entries) == 12
        # Simultaneously lose k-1 = 2 replica hosts of every shard.  Writes
        # fan out to all reachable replicas, so the one survivor per shard
        # still holds everything.
        for shard in range(3):
            hosts = store.replica_hosts(shard)
            for host in hosts[: len(hosts) - 1]:
                if network.is_online(host):
                    network.disconnect(host)
        assert store.all_entries() == entries

    def test_reconnect_grows_undersized_replica_sets(self):
        """A shard whose replica set was created while most peers were offline
        regains the full replication factor as capacity returns."""
        network, store = make_store(
            ["A", "B", "C"], shard_count=1, replication_factor=2
        )
        network.disconnect("B")
        network.disconnect("C")
        store.archive([txn("t1")], epoch=1, publisher="A")
        assert len(store.replica_hosts(0)) == 1
        network.connect("B")
        assert len(store.replica_hosts(0)) == 2
        assert store.under_replicated() == {}


class TestConfigDispatch:
    def test_store_from_config_dispatches_on_backend(self):
        network = Network(["A"])
        assert isinstance(
            store_from_config(network, StoreConfig()), UpdateStore
        )
        distributed = store_from_config(
            network,
            StoreConfig(backend="distributed", shard_count=7, replication_factor=1),
        )
        assert isinstance(distributed, DistributedUpdateStore)
        assert distributed.shard_count == 7

    def test_write_quorum_defaults_to_majority(self):
        _, store = make_store(["A", "B", "C"], replication_factor=3)
        assert store.write_quorum == 2

    def test_quorum_validation(self):
        with pytest.raises(ConfigurationError):
            make_store(["A"], replication_factor=2, write_quorum=3)
        with pytest.raises(ConfigurationError):
            make_store(["A"], replication_factor=2, read_quorum=0)
        with pytest.raises(ConfigurationError):
            StoreConfig(backend="clustered")


class TestHealth:
    def test_health_summarizes_shards(self):
        network, store = make_store(
            ["A", "B", "C"], shard_count=2, replication_factor=2, segment_size=1
        )
        for epoch in range(1, 7):
            store.archive([txn(f"t{epoch}")], epoch=epoch, publisher="A")
        health = store.health()
        assert health["backend"] == "distributed"
        assert health["transactions"] == 6
        assert health["under_replicated_shards"] == 0
        assert sum(info["entries"] for info in health["per_shard"]) == 6
        for info in health["per_shard"]:
            assert info["replicas"] == 2
            assert len(info["hosts"]) == 2


class TestRegistryCounts:
    """Repairs, rounds and copies are counted when they happen; health()
    only reads them."""

    @staticmethod
    def example_network():
        """The network of examples/distributed_store.py, synced once."""
        path = Path(__file__).resolve().parents[2] / "examples" / "distributed_store.py"
        spec = importlib.util.spec_from_file_location("distributed_store_example", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        cdss = CDSS.from_spec(example.SPEC)
        for index in range(8):
            cdss.peer("Athens").insert("Measurement", (index, 20 + index))
        cdss.sync()
        return cdss

    def test_the_snapshot_is_current_without_a_health_call(self):
        cdss = self.example_network()
        victim = next(peer for peer in ("Berlin", "Cairo") if cdss.store.host_shards(peer))
        cdss.set_online(victim, False)
        snapshot = cdss.metrics_snapshot()
        assert snapshot["store.replication.repairs"] == 1
        assert snapshot["store.anti_entropy.entries_transferred"] == 8
        health = cdss.store.health()
        assert cdss.store.health() == health
        assert cdss.metrics_snapshot() == snapshot
        assert (health["re_replications"], health["entries_transferred"]) == (1, 8)

    def test_a_store_reports_only_what_it_counted(self):
        """A store built on a registry that already counted another store's
        events starts its health counts at zero."""
        network, first = make_store(["A", "B", "C"], shard_count=1, replication_factor=2)
        first.archive([txn("t1")], epoch=1, publisher="A")
        network.disconnect(first.replica_hosts(0)[0])
        first.anti_entropy()
        assert first.health()["re_replications"] == 1
        second = DistributedUpdateStore(network, shard_count=1, replication_factor=2)
        health = second.health()
        assert [health[key] for key in (
            "degraded_writes", "re_replications", "anti_entropy_rounds", "entries_transferred"
        )] == [0, 0, 0, 0]
        second.anti_entropy()
        assert second.health()["anti_entropy_rounds"] == 1


class TestAntiEntropyClocks:
    """Compact-clock anti-entropy: cheap agreement, hole detection, ages."""

    def _filled(self, peers, count=8, **kwargs):
        network, store = make_store(peers, **kwargs)
        for epoch in range(1, count + 1):
            store.archive([txn(f"t{epoch}")], epoch=epoch, publisher="A")
        return network, store

    def test_agreeing_replicas_transfer_nothing(self):
        _, store = self._filled(["A", "B", "C"], shard_count=2, replication_factor=2)
        assert store.anti_entropy() == 0

    def test_replica_clock_detects_interior_holes(self):
        """Two replicas with equal counts and equal latest epoch but
        different members must disagree — the blind spot of the old
        (count, max) epoch vectors."""
        _, store = self._filled(
            ["A", "B"], count=6, shard_count=1, replication_factor=2, segment_size=2
        )
        shard = next(iter(store._replicas))
        replicas = store._replicas[shard]
        assert replicas[0].compact_clock().agrees_with(replicas[1].compact_clock())

        def without(replica, sequence):
            # The same host's copy, missing one interior entry.
            rebuilt = ShardReplica(replica.host)
            for entry in replica:
                if entry.sequence != sequence:
                    rebuilt.add(entry)
            return rebuilt

        left, right = without(replicas[0], 2), without(replicas[1], 3)
        store._replicas[shard] = [left, right]
        left_clock, right_clock = left.compact_clock(), right.compact_clock()
        assert len(left) != 0 and left_clock.count == right_clock.count
        assert left_clock.latest == right_clock.latest
        assert not left_clock.agrees_with(right_clock)
        assert store.anti_entropy() == 2
        assert left.compact_clock().agrees_with(right.compact_clock())
        assert census_problems(store) == []

    def test_compact_clock_counts_every_entry(self):
        _, store = self._filled(["A", "B"], count=4, shard_count=1, segment_size=2)
        replica = store._replicas[next(iter(store._replicas))][0]
        assert replica.compact_clock().count == len(replica)
        assert replica.compact_clock().byte_size() == 24

    def test_health_reports_anti_entropy_age(self):
        network, store = self._filled(
            ["A", "B", "C"], shard_count=2, replication_factor=2
        )
        store.anti_entropy()
        for info in store.health()["per_shard"]:
            assert set(info["anti_entropy_age"]) == set(info["hosts"])
            assert all(age == 0 for age in info["anti_entropy_age"].values())

    def test_offline_replicas_age_until_they_rejoin(self):
        network, store = self._filled(
            ["A", "B", "C"], count=4, shard_count=1, replication_factor=3
        )
        store.anti_entropy()
        network.disconnect("C")
        for epoch in range(5, 9):
            store.archive([txn(f"t{epoch}")], epoch=epoch, publisher="A")
        store.anti_entropy()
        ages = {
            host: age
            for info in store.health()["per_shard"]
            for host, age in info["anti_entropy_age"].items()
        }
        if "C" in ages:  # C's stale replica may have been pruned away
            assert ages["C"] > 0
        assert ages["A"] == 0 and ages["B"] == 0
        network.connect("C")  # reconnect runs catch-up anti-entropy
        ages = {
            host: age
            for info in store.health()["per_shard"]
            for host, age in info["anti_entropy_age"].items()
        }
        assert all(age == 0 for age in ages.values())
        assert store.under_replicated() == {}
