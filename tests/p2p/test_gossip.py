"""The epidemic gossip scheduler: convergence, determinism, repair."""

import hashlib
import random

import pytest

from repro.core.transactions import Transaction
from repro.core.updates import Update
from repro.errors import SyncError
from repro.p2p.distributed import DistributedUpdateStore
from repro.p2p.gossip import GossipCoordinator, GossipReport
from repro.p2p.network import Network
from repro.p2p.reconcile import ARCHIVE_NAME, SessionResult
from repro.p2p.store import UpdateStore

from message_rows import recorded_rows

PEERS = ["Alaska", "Beijing", "Crete", "Dakar", "Essen", "Fiji", "Galway", "Hanoi"]


def archive_batch(store: UpdateStore, count: int, publisher: str = "Alaska") -> list:
    published = []
    for _ in range(count):
        epoch = store.latest_epoch() + 1
        txn = Transaction(
            f"{publisher}-e{epoch}", publisher,
            (Update.insert("R", (epoch,), origin=publisher),),
            epoch=epoch,
        )
        published.extend(store.archive([txn], epoch=epoch, publisher=publisher))
    return published


def build(peers=PEERS, fanout=2):
    network = Network(peers)
    store = UpdateStore()
    coordinator = GossipCoordinator(network, store, fanout=fanout)
    for peer in peers:
        coordinator.register_peer(peer)
    return network, store, coordinator


def assert_matches_archive(coordinator: GossipCoordinator, store: UpdateStore, peers):
    expected = sorted(e.digest for e in store.published_since(0))
    for peer in peers:
        got = sorted(e.digest for e in coordinator.cache(peer).entries())
        assert got == expected, f"{peer} diverges from the archive"


class SessionEveryCatchUp(GossipCoordinator):
    """Oracle: ``catch_up`` without the certificate, a session every time."""

    def catch_up(self, peer):
        self._store_view.refresh()
        return self._reconciler.reconcile(self._caches[peer], self._store_view)


def seeded_churn(coordinator_class=GossipCoordinator):
    """Twelve peers, seeded on/off churn, an 8-shard replicated archive; a
    converge and a catch-up of every online peer after each publication.
    Returns the coordinator, how many catch-ups ran no session, and every
    message row the network accounted."""
    rng = random.Random(17)
    names = [f"P{index:02d}" for index in range(12)]
    network = Network(names)
    rows = recorded_rows(network)
    store = DistributedUpdateStore(
        network, shard_count=8, replication_factor=2, segment_size=1
    )
    coordinator = coordinator_class(network, store, fanout=2)
    for name in names:
        coordinator.register_peer(name)
    sessionless = 0
    for epoch in range(1, 31):
        # P00 and P01 never leave, so every shard keeps a reachable replica.
        for name in names[2:]:
            if rng.random() < 0.25:
                network.set_online(name, not network.is_online(name))
        publisher = rng.choice(sorted(network.online_peers()))
        batch = [
            Transaction(
                f"{publisher}-e{epoch}-{index}", publisher,
                (Update.insert("R", (epoch, index), origin=publisher),),
            )
            for index in range(rng.randint(1, 3))
        ]
        coordinator.record_published(publisher, store.archive(batch, epoch, publisher))
        coordinator.run_until_converged()
        for name in sorted(network.online_peers()):
            sessions = coordinator.summary()["sessions"]
            coordinator.catch_up(name)
            sessionless += coordinator.summary()["sessions"] == sessions
    return coordinator, sessionless, rows


class TestScheduling:
    def test_fanout_must_be_positive(self):
        with pytest.raises(SyncError):
            GossipCoordinator(Network(["A"]), UpdateStore(), fanout=0)

    def test_partner_choice_is_deterministic_and_bounded(self):
        _, _, coordinator = build(fanout=2)
        online = sorted(PEERS)
        first = coordinator._partners("Alaska", online)
        assert first == coordinator._partners("Alaska", online)
        assert len(first) == 2
        assert "Alaska" not in first

    def test_partner_schedule_is_pinned(self):
        """Golden schedule.  Re-recorded when partner choice moved from
        ranking every candidate by ``stable_hash(("gossip-partner", round,
        peer, name))`` (N keyed hashes and a sort per peer per round) to one
        ``stable_hash(("gossip-partner", round, peer))`` seeding ``fanout``
        ``mix64`` draws that pop from the sorted pool.  Who talks to whom is
        an input to every gossip-mode oracle and benchmark digest, so a
        change to the draw must show up here first."""
        _, _, coordinator = build(fanout=3)
        online = [peer for peer in PEERS if peer != "Dakar"]
        schedule = {}
        for round_index in (1, 2, 40):
            coordinator._round = round_index
            for peer in ("Alaska", "Hanoi"):
                schedule[round_index, peer] = coordinator._partners(peer, online)
        assert schedule == {
            (1, "Alaska"): ["Crete", "Hanoi", "Essen"],
            (1, "Hanoi"): ["Crete", "Beijing", "Fiji"],
            (2, "Alaska"): ["Hanoi", "Galway", "Essen"],
            (2, "Hanoi"): ["Galway", "Alaska", "Crete"],
            (40, "Alaska"): ["Beijing", ARCHIVE_NAME, "Galway"],
            (40, "Hanoi"): ["Beijing", ARCHIVE_NAME, "Essen"],
        }

    @pytest.mark.parametrize("fanout", [1, 2, 3, 7, 8, 20])
    @pytest.mark.parametrize("online_count", [1, 2, 5, 8])
    def test_a_draw_is_distinct_excludes_the_peer_and_fills_the_fanout(
        self, fanout, online_count
    ):
        _, _, coordinator = build(fanout=fanout)
        online = PEERS[:online_count]
        for round_index in range(1, 30):
            coordinator._round = round_index
            for peer in online:
                partners = coordinator._partners(peer, online)
                pool = {ARCHIVE_NAME, *online} - {peer}
                assert peer not in partners
                assert len(set(partners)) == len(partners)
                assert set(partners) <= pool
                assert len(partners) == min(fanout, len(pool))

    @pytest.mark.parametrize("population", [2, 8, 64])
    def test_a_draw_makes_one_keyed_hash_whatever_the_pool(self, population, monkeypatch):
        # The round's prefix is keyed once; each peer's draw then costs one
        # hash of its own name, ``stable_hash(("gossip-partner", round,
        # peer))`` bit for bit.
        import repro.p2p.gossip as gossip_module

        prefixes = []
        calls = []
        real = gossip_module.prefix_hasher

        def counting(prefix, seed=0):
            prefixes.append(prefix)
            hasher = real(prefix, seed)

            def draw(last):
                calls.append((*prefix, last))
                return hasher(last)

            return draw

        monkeypatch.setattr(gossip_module, "prefix_hasher", counting)
        names = [f"P{index:03d}" for index in range(population)]
        _, _, coordinator = build(peers=names, fanout=3)
        coordinator._round = 5
        for peer in names:
            coordinator._partners(peer, names)
        assert prefixes == [("gossip-partner", 5)]
        assert calls == [("gossip-partner", 5, peer) for peer in names]

    def test_centralized_and_distributed_stores_draw_the_same_schedule(self):
        def schedule(make_store):
            network = Network(PEERS)
            store = make_store(network)
            coordinator = GossipCoordinator(network, store, fanout=2)
            for peer in PEERS:
                coordinator.register_peer(peer)
            network.set_online("Dakar", False)
            drawn = []
            for epoch in range(1, 6):
                txn = Transaction(
                    f"Alaska-e{epoch}", "Alaska",
                    (Update.insert("R", (epoch,), origin="Alaska"),),
                )
                store.archive([txn], epoch=epoch, publisher="Alaska")
                online = coordinator._online_members()
                for _ in range(3):
                    coordinator.run_round()
                    drawn.append(
                        {peer: coordinator._partners(peer, online) for peer in online}
                    )
            return drawn, coordinator.summary()

        centralized = schedule(lambda network: UpdateStore())
        distributed = schedule(
            lambda network: DistributedUpdateStore(
                network, shard_count=4, replication_factor=2, segment_size=1
            )
        )
        assert centralized == distributed

    def test_partner_pool_includes_the_archive(self):
        _, _, coordinator = build(fanout=len(PEERS))
        partners = coordinator._partners("Alaska", sorted(PEERS))
        assert ARCHIVE_NAME in partners

    def test_record_published_seeds_only_known_publishers(self):
        _, store, coordinator = build()
        published = archive_batch(store, 2)
        coordinator.record_published("Alaska", published)
        coordinator.record_published("Nowhere", published)
        assert len(coordinator.cache("Alaska")) == 2


class TestConvergence:
    def test_all_online_peers_converge_to_the_archive(self):
        _, store, coordinator = build()
        archive_batch(store, 12)
        report = coordinator.run_until_converged()
        assert report.converged
        assert report.round_count >= 1
        assert_matches_archive(coordinator, store, PEERS)

    def test_flash_crowd_rejoin_converges_every_peer(self):
        """Half the network disconnects, the rest keeps publishing; when the
        crowd reconnects at once, anti-entropy must bring every returning
        peer up to date."""
        network, store, coordinator = build()
        offline, online = PEERS[: len(PEERS) // 2], PEERS[len(PEERS) // 2:]
        archive_batch(store, 5)
        coordinator.run_until_converged()
        for peer in offline:
            network.set_online(peer, False)
        archive_batch(store, 15, publisher=online[0])
        coordinator.run_until_converged()
        assert_matches_archive(coordinator, store, online)
        stale = sorted(e.digest for e in coordinator.cache(offline[0]).entries())
        assert len(stale) == 5  # disconnected peers saw nothing new
        for peer in offline:
            network.set_online(peer, True)
        report = coordinator.run_until_converged()
        assert report.converged
        assert_matches_archive(coordinator, store, PEERS)
        assert report.stats["entries_delivered"] >= 15 * len(offline)

    def test_offline_peers_are_left_alone(self):
        network, store, coordinator = build()
        network.set_online("Hanoi", False)
        archive_batch(store, 4)
        report = coordinator.run_until_converged()
        assert report.converged
        assert len(coordinator.cache("Hanoi")) == 0

    def test_empty_network_converges_trivially(self):
        network, store, coordinator = build()
        for peer in PEERS:
            network.set_online(peer, False)
        archive_batch(store, 3)
        report = coordinator.run_until_converged()
        assert report.converged and report.round_count == 0

    def test_runs_are_deterministic_across_coordinators(self):
        def campaign():
            network, store, coordinator = build()
            archive_batch(store, 10)
            for peer in PEERS[:3]:
                network.set_online(peer, False)
            report = coordinator.run_until_converged()
            return report.rounds, report.stats

        assert campaign() == campaign()


class TestRepairAndFailure:
    def test_zero_progress_round_forces_direct_archive_sessions(self):
        """If rumor-mongering delivers nothing while stale peers remain (here:
        partner choice rigged to never pick the archive among equally stale
        peers), the scheduler must repair by direct archive sessions instead
        of spinning through its round budget."""
        _, store, coordinator = build(peers=PEERS[:4], fanout=1)
        archive_batch(store, 6)
        coordinator._partners = lambda peer, online: [
            other for other in online if other != peer
        ][:1]
        report = coordinator.run_until_converged()
        assert report.converged
        assert report.round_count == 1
        assert_matches_archive(coordinator, store, PEERS[:4])

    def test_repair_sessions_are_counted_in_their_round_row(self):
        """The rigged case above: the round's own sessions deliver nothing,
        the four repairs deliver everything.  The row carries both, so the
        rows add up to the phase's totals for every counter."""
        _, store, coordinator = build(peers=PEERS[:4], fanout=1)
        archive_batch(store, 6)
        coordinator._partners = lambda peer, online: [
            other for other in online if other != peer
        ][:1]
        report = coordinator.run_until_converged()
        (row,) = report.rounds
        assert row["repair_sessions"] == 4
        assert row["sessions"] == 8
        assert row["entries_delivered"] == 24 == report.stats["entries_delivered"]
        for name, total in report.stats.items():
            assert sum(r[name] for r in report.rounds) == total, name

    def test_unconverged_budget_raises_sync_error(self):
        _, store, coordinator = build(peers=PEERS[:2])
        archive_batch(store, 3)
        idle = SessionResult(
            converged=False, delivered_left=0, delivered_right=0,
            attempts=0, fell_back=False,
        )
        coordinator._session = lambda peer, partner: idle
        with pytest.raises(SyncError, match="failed to converge"):
            coordinator.run_until_converged(max_rounds=2)

    def test_catch_up_is_cheap_after_convergence(self):
        _, store, coordinator = build()
        archive_batch(store, 8)
        coordinator.run_until_converged()
        before = coordinator.summary()
        result = coordinator.catch_up("Beijing")
        delta = coordinator.summary(since=before)
        assert result.converged and result.delivered == 0
        # Re-recorded for the certified catch-up.  This read 2 messages, the
        # challenge both ways of an unchanged session.  The converged phase
        # certified Beijing at the store's generation and nothing was
        # archived since, so no session runs and nothing is sent.
        assert delta["messages"] == 0
        assert delta["sessions"] == 0

    def test_entries_since_matches_store_cursor_after_catch_up(self):
        _, store, coordinator = build()
        archive_batch(store, 9)
        coordinator.run_until_converged()
        coordinator.catch_up("Crete")
        for epoch in (0, 4, store.latest_epoch()):
            local = [e.digest for e in coordinator.entries_since("Crete", epoch)]
            remote = [e.digest for e in store.published_since(epoch)]
            assert local == remote


class TestPinnedTraffic:
    def test_seeded_churn_over_the_distributed_store_moves_pinned_traffic(self):
        """Twelve peers, seeded on/off churn, an 8-shard replicated archive:
        the sessions run, what they decode and what they deliver are pinned,
        so a cheaper scheduler or store read cannot quietly change a
        decision."""
        coordinator, _, sent = seeded_churn()
        # Re-recorded for the O(fanout) partner draw (see
        # test_partner_schedule_is_pinned).  The ranked draw read 37 rounds,
        # 697 sessions (521 unchanged), 2 451 messages and 271 336 bytes; the
        # new schedule converges a round sooner, so 26 two-message unchanged
        # sessions fewer run.  Every decision that moves data is the same:
        # converged sessions, sketch and entry bytes, deliveries, decode
        # failures and fallbacks all equal the ranked draw's.  The remaining
        # +80 bytes are ten more digests in entry requests, the only other
        # message whose size varies: some sessions now run with the sides
        # swapped, and only what the right side lacks is requested by digest.
        # (Before that, the per-publisher vector in every challenge made the
        # ranked draw's bytes 381 501.)
        # Re-recorded for the certified catch-up: 671 sessions (495
        # unchanged), 2 399 messages and 268 920 bytes became 476 (300),
        # 2 009 and 250 200.  Each of the 195 catch-ups after a converged
        # phase found its peer certified at the store's generation and sent
        # nothing, so exactly 195 unchanged sessions, 390 challenge messages
        # and 195 * 96 bytes are gone; everything that moves data is equal
        # (test_certified_catch_up_differs_only_by_skipped_challenges).
        assert coordinator.rounds_run == 36
        # Every message in order, numbered from 1 as it reached the network
        # (2 009 rows): a change to how messages are built or accounted
        # must leave each row and its place where it was.
        rows = [(step, *row) for step, row in enumerate(sent, 1)]
        assert len(rows) == 2009
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "9512f583bd47e4386c2f87e08627898679a828ed408b41bcc281f894e3a1bf66"
        )
        assert coordinator.summary() == {
            "rounds": 36,
            "sessions": 476,
            "unchanged_sessions": 300,
            "converged_sessions": 176,
            "messages": 2009,
            "bytes": 250200,
            "sketch_bytes": 126504,
            "entry_bytes": 58288,
            "entries_delivered": 580,
            "decode_failures": 1,
            "fallbacks": 0,
        }


class TestCertifiedCatchUp:
    def test_certified_catch_up_differs_only_by_skipped_challenges(self):
        """The seeded churn run against an oracle whose catch-up always
        runs its session: the same caches, watermarks, deliveries, sketch
        and entry bytes, decode failures and fallbacks.  The certified run
        differs only by the two 48-byte challenges of each skipped
        catch-up, which were unchanged sessions in the oracle."""
        certified, skipped, _ = seeded_churn()
        oracle, oracle_skipped, _ = seeded_churn(SessionEveryCatchUp)
        assert skipped > 0 and oracle_skipped == 0
        for name in sorted(oracle._caches):
            mine, theirs = certified.cache(name), oracle.cache(name)
            assert [e.digest for e in mine.entries()] == [e.digest for e in theirs.entries()]
            assert mine.complete_until == theirs.complete_until
        assert certified._store_view.complete_until == oracle._store_view.complete_until
        assert certified.rounds_run == oracle.rounds_run
        got, want = certified.summary(), oracle.summary()
        for name in (
            "converged_sessions", "sketch_bytes", "entry_bytes",
            "entries_delivered", "decode_failures", "fallbacks",
        ):
            assert got[name] == want[name], name
        assert want["sessions"] - got["sessions"] == skipped
        assert want["unchanged_sessions"] - got["unchanged_sessions"] == skipped
        assert want["messages"] - got["messages"] == 2 * skipped
        assert want["bytes"] - got["bytes"] == 96 * skipped

    def test_a_catch_up_after_a_new_archive_runs_a_session_and_delivers(self):
        _, store, coordinator = build()
        archive_batch(store, 5)
        coordinator.run_until_converged()
        archive_batch(store, 3)
        before = coordinator.summary()
        result = coordinator.catch_up("Crete")
        delta = coordinator.summary(since=before)
        assert delta["sessions"] == 1 and result.converged
        assert result.delivered == delta["entries_delivered"] == 3
        assert_matches_archive(coordinator, store, ["Crete"])
        # The converged session certified Crete: the next catch-up is free.
        before = coordinator.summary()
        assert coordinator.catch_up("Crete").delivered == 0
        assert coordinator.summary(since=before)["messages"] == 0

    def test_a_catch_up_after_set_online_on_a_distributed_store_runs_a_session(self):
        network = Network(PEERS)
        store = DistributedUpdateStore(
            network, shard_count=4, replication_factor=2, segment_size=1
        )
        coordinator = GossipCoordinator(network, store, fanout=2)
        for peer in PEERS:
            coordinator.register_peer(peer)
        archive_batch(store, 4)
        coordinator.run_until_converged()
        # A reachability change alone voids every certificate: the session
        # runs, and only confirms equality.
        network.set_online("Hanoi", False)
        before = coordinator.summary()
        result = coordinator.catch_up("Alaska")
        delta = coordinator.summary(since=before)
        assert delta["sessions"] == delta["unchanged_sessions"] == 1
        assert delta["messages"] == 2 and result.delivered == 0
        # Hanoi misses two publications while offline; on its return the
        # catch-up runs a session that delivers them.
        archive_batch(store, 2, publisher="Beijing")
        coordinator.run_until_converged()
        network.set_online("Hanoi", True)
        before = coordinator.summary()
        result = coordinator.catch_up("Hanoi")
        delta = coordinator.summary(since=before)
        assert delta["sessions"] == 1 and result.converged
        assert result.delivered == 2
        assert_matches_archive(coordinator, store, ["Hanoi"])
        assert coordinator.cache("Hanoi").complete_until == store.latest_epoch()


class TestReporting:
    def test_round_counters_add_up(self):
        # Every counter, with and without offline peers (whose absence
        # makes some rounds need repair sessions).
        for offline in (0, 3):
            network, store, coordinator = build()
            archive_batch(store, 7)
            for peer in PEERS[:offline]:
                network.set_online(peer, False)
            report = coordinator.run_until_converged()
            assert report.rounds
            for name, total in report.stats.items():
                assert sum(r[name] for r in report.rounds) == total, name

    def test_report_to_dict_carries_rounds_and_stats(self):
        _, store, coordinator = build()
        archive_batch(store, 3)
        payload = coordinator.run_until_converged().to_dict()
        assert payload["converged"] is True
        assert payload["round_count"] == len(payload["rounds"])
        assert payload["sessions"] > 0 and payload["bytes"] > 0

    def test_empty_report_defaults(self):
        report = GossipReport()
        assert report.to_dict() == {"rounds": [], "round_count": 0, "converged": True}

    def test_summary_reports_deltas(self):
        _, store, coordinator = build()
        archive_batch(store, 4)
        coordinator.run_until_converged()
        before = coordinator.summary()
        archive_batch(store, 2)
        report = coordinator.run_until_converged()
        summary = coordinator.summary(since=before)
        assert summary["rounds"] == report.round_count >= 1
        assert summary["entries_delivered"] >= 2 * len(PEERS)
        assert summary == {"rounds": report.round_count, **report.stats}



def flushed_phase(rigged: bool):
    """One ``run_until_converged`` after seven publications, recording every
    ``record_messages`` call and how many of them each ``run_round`` made.
    ``rigged`` pairs four equally stale peers among themselves, so the one
    round delivers nothing and a batch of repair sessions follows it."""
    network, store, coordinator = build(peers=PEERS[:4] if rigged else PEERS)
    flushes: list = []
    per_round: list = []
    record = network.record_messages
    run_round = coordinator.run_round

    def counting(rows):
        rows = tuple(rows)
        flushes.append(rows)
        record(rows)

    def counted_round():
        before = len(flushes)
        row = run_round()
        per_round.append(len(flushes) - before)
        return row

    network.record_messages = counting
    coordinator.run_round = counted_round
    if rigged:
        coordinator._partners = lambda peer, online: [
            other for other in online if other != peer
        ][:1]
    archive_batch(store, 7)
    report = coordinator.run_until_converged()
    return network, coordinator, report, flushes, per_round


def test_a_round_is_accounted_in_one_flush():
    """Each ``run_round`` hands its sessions' rows to the network in one
    ``record_messages`` call (and its repair sessions in one more), in send
    order; the report's rows add up to its stats, and the stats equal the
    registry's ``gossip.*`` and ``net.*`` series.  A session run on its own
    is one flush too
    (``test_reconcile.py::test_a_session_is_accounted_in_one_flush``)."""
    for rigged in (False, True):
        network, coordinator, report, flushes, per_round = flushed_phase(rigged)
        assert per_round == [1] * report.round_count
        repairs = sum(1 for row in report.rounds if row["repair_sessions"])
        assert repairs == rigged
        assert len(flushes) == report.round_count + repairs
        # A flush carries whole sessions, several of them.
        assert all(rows[0][2] == rows[1][2] == "challenge" for rows in flushes)
        assert all(sum(row[2] == "challenge" for row in rows) > 2 for rows in flushes)
        sent = [row for rows in flushes for row in rows]

        stats = report.stats
        for name, total in stats.items():
            assert sum(row[name] for row in report.rounds) == total, name
        assert coordinator.summary() == {"rounds": report.round_count, **stats}
        metrics = network.obs.metrics
        assert stats["sessions"] == metrics.counter_value("gossip.sessions")
        assert stats["decode_failures"] == metrics.counter_value("sketch.decode.failures")
        assert metrics.counter_value("net.messages.sent") == stats["messages"] == len(sent)
        assert metrics.counter_value("net.bytes.sent") == stats["bytes"]
        assert metrics.counter_value("net.bytes.received") == sum(row[3] for row in sent)
