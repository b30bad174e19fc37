"""The sketch-based reconciliation protocol: sessions, bytes, fallback."""

import pytest

from repro.core.transactions import Transaction
from repro.core.updates import Update
from repro.obs import Observability
from repro.p2p.network import Network
from repro.p2p.reconcile import (
    MESSAGE_HEADER_BYTES,
    EntryCache,
    SetReconciler,
    StoreView,
    cursor_transfer_bytes,
    session_counts,
)
from repro.p2p.sketch import CompactClock
from repro.p2p.store import PublishedTransaction, UpdateStore

from message_rows import recorded_rows


def entry(txn_id: str, epoch: int, sequence: int, peer: str = "Alaska") -> PublishedTransaction:
    txn = Transaction(txn_id, peer, (Update.insert("R", (txn_id,), origin=peer),), epoch=epoch)
    return PublishedTransaction(txn, epoch, sequence, peer)


def entries(count: int, start: int = 0, peer: str = "Alaska") -> list[PublishedTransaction]:
    # Epochs are 1-based in the archive; keep the helper in-domain.
    return [
        entry(f"{peer}-t{start + i}", epoch=start + i + 1, sequence=start + i, peer=peer)
        for i in range(count)
    ]


class TestEntryCache:
    def test_add_is_idempotent_by_digest(self):
        cache = EntryCache("A")
        batch = entries(3)
        assert cache.add_entries(batch) == 3
        assert cache.add_entries(batch) == 0
        assert len(cache) == 3

    def test_checksum_is_incremental_xor(self):
        cache = EntryCache("A")
        batch = entries(4)
        cache.add_entries(batch)
        expected = 0
        for item in batch:
            expected ^= item.digest
        assert cache.checksum == expected

    def test_since_matches_epoch_order(self):
        cache = EntryCache("A")
        cache.add_entries(entries(5))
        assert [e.epoch for e in cache.since(2)] == [3, 4, 5]

    def test_compact_clock_summarises_every_publisher(self):
        cache = EntryCache("A")
        batch = entries(2, peer="Alaska") + entries(1, start=5, peer="Beijing")
        cache.add_entries(batch)
        checksum = batch[0].digest ^ batch[1].digest ^ batch[2].digest
        assert cache.compact_clock() == CompactClock(3, checksum, 6)

    def test_mark_complete_is_monotone(self):
        cache = EntryCache("A")
        cache.mark_complete(5)
        cache.mark_complete(3)
        assert cache.complete_until == 5

    def test_entries_for_skips_unknown_digests(self):
        cache = EntryCache("A")
        batch = entries(2)
        cache.add_entries(batch)
        got = cache.entries_for([batch[0].digest, 12345])
        assert got == [batch[0]]


class TestStoreView:
    def _store_with(self, count: int) -> UpdateStore:
        store = UpdateStore()
        for i in range(count):
            txn = Transaction(f"t{i}", "Alaska", (Update.insert("R", (i,), origin="Alaska"),))
            store.archive([txn], epoch=i + 1, publisher="Alaska")
        return store

    def test_refresh_mirrors_the_store(self):
        store = self._store_with(3)
        view = StoreView(store)
        view.refresh()
        assert len(view) == 3
        assert view.complete_until == store.latest_epoch()

    def test_refresh_is_incremental_and_catches_same_epoch_batches(self):
        store = self._store_with(2)
        view = StoreView(store)
        view.refresh()
        # A second batch at the current latest epoch must still be picked up.
        txn = Transaction("late", "Alaska", (Update.insert("R", ("late",), origin="Alaska"),))
        store.archive([txn], epoch=store.latest_epoch(), publisher="Alaska")
        view.refresh()
        assert len(view) == 3

    def test_store_view_never_accepts_entries(self):
        view = StoreView(self._store_with(1))
        view.refresh()
        assert view.add_entries(entries(2, start=10)) == 0
        assert len(view) == 1


def counted(network=None):
    """A reconciler, and a reading of the session counters it adds to the
    registry it shares with ``network`` (its own one without)."""
    obs = network.obs if network is not None else Observability()
    return SetReconciler(network=network, observability=obs), lambda: session_counts(obs.metrics)


def divergent_caches(shared: int, extra_left: int, extra_right: int):
    left = EntryCache("L")
    right = EntryCache("R")
    common = entries(shared)
    left.add_entries(common)
    right.add_entries(common)
    left.add_entries(entries(extra_left, start=100, peer="Beijing"))
    right.add_entries(entries(extra_right, start=200, peer="Crete"))
    return left, right


class TestSessions:
    def _caches(self, shared: int, extra_left: int, extra_right: int):
        return divergent_caches(shared, extra_left, extra_right)

    def test_converged_sides_exchange_two_messages(self):
        left, right = self._caches(10, 0, 0)
        reconciler, counts = counted()
        result = reconciler.reconcile(left, right)
        assert result.converged and result.delivered == 0
        assert counts()["messages"] == 2
        assert counts()["unchanged_sessions"] == 1

    @pytest.mark.parametrize("publishers", [1, 40])
    def test_converged_session_costs_two_constant_size_messages(self, publishers):
        """An idle session is priced by the protocol, not the population:
        the same 2 x 48 bytes whether the sides hold 1 publisher or 40."""
        common = [
            entry(f"t{index}", epoch=index + 1, sequence=index, peer=f"Publisher-{index:02d}")
            for index in range(publishers)
        ]
        left, right = EntryCache("L"), EntryCache("R")
        left.add_entries(common)
        right.add_entries(common)
        assert len({e.publisher for e in left}) == publishers
        network = Network(["L", "R"])
        rows = recorded_rows(network)
        reconciler, counts = counted(network)
        assert reconciler.reconcile(left, right).converged
        assert [row[3] for row in rows] == [MESSAGE_HEADER_BYTES + 32] * 2
        assert counts()["bytes"] == 2 * (MESSAGE_HEADER_BYTES + 32)

    def test_session_makes_both_sides_equal(self):
        left, right = self._caches(20, 3, 2)
        reconciler = SetReconciler()
        result = reconciler.reconcile(left, right)
        assert result.converged
        assert result.delivered_left == 2 and result.delivered_right == 3
        assert left.compact_clock().agrees_with(right.compact_clock())
        assert sorted(e.txn_id for e in left.entries()) == sorted(
            e.txn_id for e in right.entries()
        )

    def test_bytes_scale_with_diff_not_log(self):
        """The same 5-entry diff over a 40-entry vs a 400-entry shared tail:
        watermarked sketch sessions move nearly identical byte counts, while
        a cursor replay of the tail grows ~10x."""
        def session_bytes(shared):
            left = EntryCache("L")
            right = EntryCache("R")
            common = entries(shared)
            left.add_entries(common)
            right.add_entries(common)
            # Both sides are provably complete through the shared prefix;
            # the diff lives strictly above the watermark.
            left.mark_complete(shared)
            right.mark_complete(shared)
            left.add_entries(entries(5, start=shared + 100, peer="Beijing"))
            reconciler, counts = counted()
            assert reconciler.reconcile(left, right).converged
            return counts()["bytes"]

        small, large = session_bytes(40), session_bytes(400)
        assert large <= small * 2
        baseline_small = cursor_transfer_bytes(entries(40))
        baseline_large = cursor_transfer_bytes(entries(400))
        assert baseline_large > baseline_small * 8

    def test_the_registry_accounts_every_message(self):
        left, right = self._caches(5, 2, 1)
        reconciler, counts = counted()
        reconciler.reconcile(left, right)
        stats = counts()
        assert stats["sessions"] == 1
        assert stats["messages"] > 2
        assert stats["bytes"] >= stats["messages"] * MESSAGE_HEADER_BYTES
        assert stats["sketch_bytes"] > 0
        assert stats["entry_bytes"] > 0
        assert stats["entries_delivered"] == 3

    def test_a_flush_adds_no_zero_count(self):
        """A count that did not move creates no series: an unchanged session
        leaves exactly its four moved counters in the registry."""
        left, right = self._caches(3, 0, 0)
        obs = Observability()
        SetReconciler(observability=obs).reconcile(left, right)
        assert obs.metrics.snapshot() == {
            "gossip.bytes": 2 * (MESSAGE_HEADER_BYTES + 32),
            "gossip.messages": 2,
            "gossip.sessions": 1,
            "gossip.sessions_unchanged": 1,
        }

    def test_network_message_stats_are_fed(self):
        network = Network(["L", "R"])
        left, right = self._caches(5, 1, 1)
        reconciler, counts = counted(network)
        reconciler.reconcile(left, right)
        stats = network.message_stats()
        assert stats["messages"] == counts()["messages"]
        assert stats["bytes"] == counts()["bytes"]
        assert stats["per_peer"]["L"]["sent"] > 0
        assert stats["per_peer"]["R"]["received"] > 0

    def test_a_session_is_accounted_in_one_flush(self, monkeypatch):
        """One ``record_messages`` call per session, carrying every message
        in send order; the ``gossip.*`` series agree with it."""
        network = Network(["L", "R"])
        flushes = []
        real = network.record_messages

        def counting(rows):
            rows = tuple(rows)
            flushes.append(rows)
            real(rows)

        monkeypatch.setattr(network, "record_messages", counting)
        left, right = self._caches(5, 2, 1)
        reconciler, counts = counted(network)
        reconciler.reconcile(left, right)
        (rows,) = flushes
        assert rows[0][2] == rows[1][2] == "challenge"
        assert rows[-2:] == (("L", "R", "clock", rows[-1][3]), ("R", "L", "clock", rows[-1][3]))
        stats = counts()
        assert stats["sessions"] == 1
        assert stats["messages"] == len(rows)
        assert stats["bytes"] == sum(row[3] for row in rows)
        assert stats["sketch_bytes"] == sum(row[3] for row in rows if row[2] == "sketch")
        assert stats["entry_bytes"] == sum(row[3] for row in rows if row[2] == "batch")
        assert network.message_stats()["bytes"] == stats["bytes"]

    def test_completeness_propagates_through_sessions(self):
        left, right = self._caches(6, 0, 2)
        right.mark_complete(5)
        reconciler = SetReconciler()
        assert reconciler.reconcile(left, right).converged
        assert left.complete_until == 5

    def test_session_counts_since_an_earlier_reading(self):
        left, right = self._caches(4, 1, 0)
        obs = Observability()
        reconciler = SetReconciler(observability=obs)
        reconciler.reconcile(*self._caches(2, 0, 0))
        before = session_counts(obs.metrics)
        reconciler.reconcile(left, right)
        delta = session_counts(obs.metrics, since=before)
        assert delta["sessions"] == 1
        assert delta["unchanged_sessions"] == 0
        assert delta["entries_delivered"] == 1
        assert session_counts(obs.metrics)["sessions"] == 2


class TestMemos:
    def test_seeds_and_cell_positions_are_memoized_per_reconciler(self):
        left, right = divergent_caches(30, 4, 3)
        first = SetReconciler()
        second = SetReconciler()
        assert first._iblt_positions is not second._iblt_positions
        assert first.reconcile(left, right).converged
        assert list(first._seeds) == [(0, 32)]
        ((shape, memo),) = first._iblt_positions.items()
        assert shape[0] == first._seeds[0, 32]
        # No watermark: every digest either side held entered a table of
        # the one shape, and after the session the left side holds them all.
        assert set(memo) == {e.digest for e in left.entries()}
        assert second._iblt_positions == {} and second._seeds == {}


class TestGrowAndFallback:
    def test_iblt_grows_after_decode_failure(self, monkeypatch):
        """A symmetric diff keeps the observable count difference at zero, so
        the sketch starts at a tiny capacity; the first attempts must stall
        and the grown retries converge without falling back."""
        monkeypatch.setattr(SetReconciler, "CAPACITY", 4)
        monkeypatch.setattr(SetReconciler, "GROWTH", 8)
        left = EntryCache("L")
        right = EntryCache("R")
        left.add_entries(entries(60, peer="Beijing"))
        right.add_entries(entries(60, start=1000, peer="Crete"))
        reconciler, counts = counted()
        result = reconciler.reconcile(left, right)
        assert result.converged and not result.fell_back
        assert result.attempts > 1
        assert counts()["decode_failures"] == result.attempts - 1
        assert len(left) == len(right) == 120

    def test_exhausted_attempts_fall_back_to_cursor_replay(self, monkeypatch):
        """With one attempt at a capacity small enough that it fails, the
        session must fall back to cursor replay and still converge —
        decode failure is a cost signal, never a correctness problem."""
        monkeypatch.setattr(SetReconciler, "CAPACITY", 1)
        monkeypatch.setattr(SetReconciler, "ATTEMPTS", 1)
        left = EntryCache("L")
        right = EntryCache("R")
        left.add_entries(entries(300, peer="Beijing"))
        # A symmetric diff keeps the count difference at zero, so the base
        # capacity stays at 1 and the sketch must stall.
        right.add_entries(entries(300, start=1000, peer="Crete"))
        reconciler, counts = counted()
        result = reconciler.reconcile(left, right)
        assert result.fell_back
        assert result.converged
        assert counts()["fallbacks"] == 1
        assert counts()["decode_failures"] >= 1
        assert left.compact_clock().agrees_with(right.compact_clock())
        assert len(left) == len(right) == 600

    def test_fallback_replays_from_watermark_only(self):
        left = EntryCache("L")
        right = EntryCache("R")
        shared = entries(10)
        left.add_entries(shared)
        right.add_entries(shared)
        left.mark_complete(10)
        right.mark_complete(10)
        right.add_entries(entries(3, start=20, peer="Crete"))
        reconciler, counts = counted()
        # Even a direct fallback ships only the tail above the watermark.
        got_left, got_right = reconciler._cursor_fallback(left, right)
        assert got_left == 3 and got_right == 0
        reconciler._flush()
        moved = counts()["bytes"]
        assert 0 < moved < cursor_transfer_bytes(shared + entries(3, start=20, peer="Crete"))


class TestCursorTransferBytes:
    def test_counts_request_and_batch(self):
        batch = entries(3)
        expected = (MESSAGE_HEADER_BYTES + 8) + MESSAGE_HEADER_BYTES + sum(
            e.wire_size for e in batch
        )
        assert cursor_transfer_bytes(batch) == expected

    def test_empty_replay_still_costs_an_envelope(self):
        assert cursor_transfer_bytes([]) == (MESSAGE_HEADER_BYTES + 8) + MESSAGE_HEADER_BYTES
