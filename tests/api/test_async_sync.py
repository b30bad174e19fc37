"""The pipelined async sync runtime, the latency model, and the sync fixes.

Covers the tentpole and its satellites end to end: the async scheduler
produces reports bit-identical to the serial loop while finishing in less
virtual time, bounded delivery queues apply backpressure, the seeded
latency model is deterministic, ``SyncError`` carries the partial report,
``SyncReport`` dedup is order-preserving, and the quiescent final round
skips the gossip anti-entropy phase.
"""

import json
import time
from typing import Optional

import pytest

from repro.api.async_sync import (
    AsyncSyncRuntime,
    DeliveryQueue,
    VirtualTimeEventLoop,
    async_synchronize,
)
from repro.api.spec import SectionSpec, parse_network_spec, sections_of
from repro.api.sync import SyncReport, SyncRound
from repro.config import StoreConfig, SyncConfig, SystemConfig
from repro.core.mapping import join_mapping
from repro.core.schema import PeerSchema
from repro.core.system import CDSS
from repro.core.trust import TrustPolicy
from repro.errors import ConfigurationError, NetworkError, SpecError, SyncError
from repro.p2p.network import LatencyModel, Network, VirtualClock

PEERS = ("Alice", "Bob", "Carol")


def build_system(
    runtime: str = "serial",
    backend: str = "centralized",
    sync_mode: str = "cursor",
    store_knobs: Optional[dict] = None,
    **sync_knobs,
) -> CDSS:
    """A three-peer chain Alice -> Bob -> Carol with full trust."""
    cdss = CDSS(
        SystemConfig(
            store=StoreConfig(backend=backend, **(store_knobs or {})),
            sync=SyncConfig(mode=sync_mode, runtime=runtime, **sync_knobs),
        )
    )
    priorities = {"Alice": 10, "Bob": 9, "Carol": 8}
    for name in PEERS:
        cdss.add_peer(
            name,
            PeerSchema.build(name[0], {"R": ["a", "b"]}, {"R": ["a"]}),
            TrustPolicy.trust_only(name, priorities),
        )
    cdss.add_mapping(join_mapping("M_AB", "Alice", "Bob", "R(a, b)", ["R(a, b)"]))
    cdss.add_mapping(join_mapping("M_BC", "Bob", "Carol", "R(a, b)", ["R(a, b)"]))
    return cdss


def canonical(report: SyncReport) -> str:
    """The report as JSON, minus the runtime-specific scheduler accounting."""
    data = report.to_dict()
    data.pop("runtime", None)
    return json.dumps(data, sort_keys=True, default=str)


class TestVirtualClock:
    def test_advances_and_never_rewinds(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        assert clock.advance(1.5) == 1.5
        assert clock.advance_to(1.0) == 1.5  # stays put, never backwards
        assert clock.advance_to(4.0) == 4.0
        with pytest.raises(NetworkError):
            clock.advance(-0.1)


class TestLatencyModel:
    def test_delays_are_deterministic_and_seeded(self):
        model = LatencyModel(seed=3)
        again = LatencyModel(seed=3)
        other = LatencyModel(seed=4)
        draws = [model.delay("a", "b", 100, i) for i in range(32)]
        assert draws == [again.delay("a", "b", 100, i) for i in range(32)]
        assert draws != [other.delay("a", "b", 100, i) for i in range(32)]

    def test_delay_components(self):
        # No jitter, no spikes: delay is exactly base + size/bandwidth.
        model = LatencyModel(base_delay=0.01, jitter=0.0, bandwidth=1000.0,
                             spike_probability=0.0)
        assert model.delay("a", "b", 500, 0) == pytest.approx(0.01 + 0.5)
        # Certain spikes add spike_factor * base.
        spiky = LatencyModel(base_delay=0.01, jitter=0.0, bandwidth=1e9,
                             spike_probability=1.0, spike_factor=4.0)
        assert spiky.delay("a", "b", 0, 0) == pytest.approx(0.01 * 5)

    def test_spikes_reorder_messages_on_a_link(self):
        # With spikes on, some later message must arrive before an earlier
        # one: send i at virtual time i*eps, arrival = send + delay.
        model = LatencyModel(seed=1, spike_probability=0.3)
        arrivals = [i * 1e-6 + model.delay("a", "b", 64, i) for i in range(64)]
        assert arrivals != sorted(arrivals)

    def test_validation(self):
        with pytest.raises(NetworkError):
            LatencyModel(base_delay=-1.0)
        with pytest.raises(NetworkError):
            LatencyModel(base_delay=0.001, jitter=0.002)
        with pytest.raises(NetworkError):
            LatencyModel(bandwidth=0.0)
        with pytest.raises(NetworkError):
            LatencyModel(spike_probability=1.5)

    def test_network_transmit_advances_serial_clock(self):
        network = Network(["a", "b"])
        assert network.transmit("a", "b", "test", 10) == 0.0  # no model: free
        network.set_latency_model(LatencyModel(seed=0))
        first = network.transmit("a", "b", "test", 10)
        assert first > 0.0
        assert network.clock.now == pytest.approx(first)
        # advance=False computes the delay but leaves the clock alone.
        second = network.transmit("a", "b", "test", 10, advance=False)
        assert second > 0.0
        assert network.clock.now == pytest.approx(first)
        assert network.message_stats()["messages"] == 3

    def test_link_delays_equal_the_model_bit_for_bit_across_a_swap(self):
        """``Network.link_delay`` hashes each link's prefix once and caches
        the hasher; the stream must still be ``LatencyModel.delay`` exactly,
        per link, and follow the model when it is swapped mid-stream (the
        sequence counters carry on, the cached hashers do not)."""
        links = [("a", "b"), ("b", "a"), ("archive", "a")]
        network = Network(["a", "b"])
        first, second = LatencyModel(seed=7), LatencyModel(seed=8, spike_probability=0.4)
        network.set_latency_model(first)
        for sequence in range(1000):
            model = first if sequence < 600 else second
            if sequence == 600:
                network.set_latency_model(second)
            for sender, receiver in links:
                size = 64 + sequence
                assert network.link_delay(sender, receiver, size) == model.delay(
                    sender, receiver, size, sequence
                )
        network.set_latency_model(None)
        assert network.link_delay("a", "b", 64) == 0.0


class TestVirtualTimeEventLoop:
    def test_sleep_costs_virtual_not_wall_time(self):
        import asyncio

        async def nap():
            await asyncio.sleep(500.0)
            return asyncio.get_running_loop().time()

        loop = VirtualTimeEventLoop()
        started = time.monotonic()
        try:
            woke = loop.run_until_complete(nap())
        finally:
            loop.close()
        assert woke >= 500.0
        assert time.monotonic() - started < 5.0  # jumped, not slept

    def test_overlapped_sleeps_cost_the_longest(self):
        import asyncio

        async def nap_all():
            loop = asyncio.get_running_loop()
            started = loop.time()
            await asyncio.gather(*(asyncio.sleep(t) for t in (1.0, 2.0, 3.0)))
            return loop.time() - started

        loop = VirtualTimeEventLoop()
        try:
            elapsed = loop.run_until_complete(nap_all())
        finally:
            loop.close()
        assert elapsed == pytest.approx(3.0)


class TestAsyncMatchesSerial:
    @pytest.mark.parametrize("backend", ["centralized", "distributed"])
    @pytest.mark.parametrize("sync_mode", ["cursor", "gossip"])
    def test_reports_and_instances_are_identical(self, backend, sync_mode):
        def run(runtime):
            cdss = build_system(runtime, backend, sync_mode)
            cdss.network.set_latency_model(LatencyModel(seed=7))
            cdss.peer("Alice").insert("R", (1, "x"))
            cdss.peer("Bob").insert("R", (2, "y"))
            report = cdss.sync()
            snapshot = {
                name: sorted(map(repr, cdss.peer(name).instance.snapshot().get("R", ())))
                for name in PEERS
            }
            return report, snapshot

        serial_report, serial_snapshot = run("serial")
        async_report, async_snapshot = run("async")
        assert canonical(serial_report) == canonical(async_report)
        assert serial_snapshot == async_snapshot
        assert serial_report.runtime is None
        assert async_report.runtime["mode"] == "async"

    def test_async_run_is_deterministic(self):
        def run():
            cdss = build_system("async", "distributed", "gossip")
            cdss.network.set_latency_model(LatencyModel(seed=11))
            cdss.peer("Alice").insert("R", (5, "p"))
            report = cdss.sync()
            return report.to_dict(), cdss.network.clock.now

        first, first_clock = run()
        second, second_clock = run()
        assert json.dumps(first, sort_keys=True, default=str) == json.dumps(
            second, sort_keys=True, default=str
        )
        assert first_clock == second_clock

    def test_async_overlap_beats_serial_virtual_time(self):
        def run(runtime):
            cdss = build_system(runtime)
            cdss.network.set_latency_model(LatencyModel(seed=7))
            for name in PEERS:
                cdss.peer(name).insert("R", (hash(name) % 97, name.lower()))
            cdss.sync()
            return cdss.network.clock.now

        assert run("async") < run("serial")

    def test_runtime_accounting_is_reported(self):
        cdss = build_system("async", "distributed")
        cdss.network.set_latency_model(LatencyModel(seed=7))
        cdss.peer("Alice").insert("R", (1, "x"))
        report = cdss.sync()
        accounting = report.runtime
        assert accounting["workers"] == cdss.config.sync.workers
        assert accounting["queue_depth"] == cdss.config.sync.queue_depth
        assert accounting["transfers"] > 0
        assert accounting["virtual_seconds"] > 0.0
        assert 1 <= accounting["max_in_flight"] <= accounting["workers"]
        assert accounting == report.to_dict()["runtime"]

    def test_per_call_runtime_override(self):
        cdss = build_system("serial")
        cdss.peer("Alice").insert("R", (1, "x"))
        report = cdss.sync(runtime="async")
        assert report.converged and report.runtime["mode"] == "async"
        with pytest.raises(ConfigurationError):
            cdss.sync(runtime="threads")


class TestAdmissionControl:
    def test_worker_semaphore_caps_in_flight_transfers(self):
        cdss = build_system("async", workers=2)
        cdss.network.set_latency_model(LatencyModel(seed=7))
        for name in PEERS:
            cdss.peer(name).insert("R", (hash(name) % 89, name.lower()))
        report = cdss.sync()
        assert report.runtime["max_in_flight"] <= 2

    def test_bounded_queue_caps_in_flight_work_per_peer(self):
        """A bounded DeliveryQueue never holds more than its depth; extra
        producers stall on ``put`` (counted backpressure) until the consumer
        drains, so a flooded peer slows its producers instead of buffering
        without bound."""
        import asyncio

        async def flood():
            queue = DeliveryQueue("victim", depth=2)
            consumed = []

            async def consumer():
                while True:
                    item = await queue.get()
                    await asyncio.sleep(0.01)  # slow receiver
                    consumed.append(item)
                    queue.task_done()

            worker = asyncio.ensure_future(consumer())
            await asyncio.gather(
                *(queue.put(("src", "kind", i)) for i in range(10))
            )
            await queue.join()
            worker.cancel()
            return queue, consumed

        loop = VirtualTimeEventLoop()
        try:
            queue, consumed = loop.run_until_complete(flood())
        finally:
            loop.close()
        assert len(consumed) == 10
        assert queue.max_depth_seen <= 2  # the bound held
        assert queue.stalls >= 8  # producers had to wait for drain

    def test_backpressure_stalls_surface_in_the_report(self):
        cdss = build_system(
            "async", "distributed", workers=16, queue_depth=1,
            store_knobs={"replication_factor": 3, "shard_count": 1},
        )
        cdss.network.set_latency_model(LatencyModel(seed=7))
        for name in PEERS:
            for row in range(4):
                cdss.peer(name).insert("R", (hash((name, row)) % 997, name.lower()))
        report = cdss.sync()
        assert report.converged
        assert report.runtime["max_queue_depth_seen"] <= 1

    def test_worker_and_depth_floors_are_validated(self):
        for bad in ({"runtime": "turbo"}, {"workers": 0}, {"queue_depth": 0}):
            with pytest.raises(ConfigurationError):
                SyncConfig(**bad)
        cdss = build_system()
        with pytest.raises(SyncError):
            async_synchronize(cdss, workers=0)
        with pytest.raises(SyncError):
            async_synchronize(cdss, queue_depth=0)


class TestSpecRoundTrip:
    def test_sync_line_accepts_runtime_knobs(self):
        spec = parse_network_spec(
            "network demo\n"
            "sync cursor runtime async workers 4\n"
            "peer P\n"
            "  relation R(a, b) key(a)\n"
        )
        sync = spec.sections["sync"]
        assert sync.values == {"mode": "cursor", "runtime": "async", "workers": 4}
        assert "runtime async workers 4" in sync.to_text_line()

    def test_gossip_line_combines_with_runtime(self):
        sync = SectionSpec(
            "sync", {"mode": "gossip", "workers": 2, "runtime": "async", "fanout": 3}
        )
        sync.validate()
        line = sync.to_text_line()
        assert line == "sync gossip fanout 3 runtime async workers 2"

    def test_cursor_still_rejects_gossip_knobs(self):
        for bad in ({"fanout": 2}, {"runtime": "turbo"}, {"workers": 0}):
            with pytest.raises(SpecError):
                SectionSpec("sync", {"mode": "cursor", **bad}).validate()

    def test_builder_wires_runtime_into_store_config(self):
        from repro.api import NetworkBuilder

        builder = NetworkBuilder("demo")
        builder.peer("P").relation("R", "a", "b", key=["a"])
        builder.sync("cursor", runtime="async", workers=3)
        cdss = builder.build()
        assert cdss.config.sync.runtime == "async"
        assert cdss.config.sync.workers == 3

    def test_recovered_sync_section_names_the_async_runtime(self):
        serial = build_system("serial")
        assert "sync" not in sections_of(serial.config)
        on_async = build_system("async", workers=5)
        recovered = sections_of(on_async.config)["sync"]
        assert recovered.values == {"mode": "cursor", "runtime": "async", "workers": 5}
        gossip = build_system("async", sync_mode="gossip")
        recovered = sections_of(gossip.config)["sync"]
        assert recovered.values == {"mode": "gossip", "runtime": "async"}
        # And the full system spec round-trips through text.
        text = on_async.to_spec().to_text()
        assert parse_network_spec(text).sections["sync"].values["runtime"] == "async"


class TestSyncErrorReport:
    @pytest.mark.parametrize("runtime", ["serial", "async"])
    def test_partial_report_is_attached_at_max_rounds(self, runtime):
        cdss = build_system(runtime)
        cdss.peer("Alice").insert("R", (1, "x"))
        with pytest.raises(SyncError) as excinfo:
            cdss.sync(max_rounds=1)  # publish round can never be quiescent
        report = excinfo.value.report
        assert isinstance(report, SyncReport)
        assert not report.converged
        assert report.round_count == 1
        assert report.published_transactions == 1
        # The partial report is finalized: conflicts and decisions are
        # queryable exactly as on the success path.
        assert set(report.open_conflicts) == set(PEERS)
        assert report.to_dict()["converged"] is False

    def test_no_peers_error_has_no_report(self):
        cdss = CDSS()
        with pytest.raises(SyncError) as excinfo:
            cdss.sync()
        assert excinfo.value.report is None


class TestReportDeduplication:
    def _many_round_report(self, rounds=200):
        """A report whose every round repeats decisions and offline peers."""

        class FakeOutcome:
            def __init__(self, index):
                self.peer = "P"
                self.accepted = [f"t{index}", "t-dup", f"t{index}"]
                self.rejected = []
                self.deferred = []
                self.pending = []

            def to_dict(self):
                return {}

        report = SyncReport(peers=["P", "Q"])
        for index in range(rounds):
            round_ = SyncRound(index=index + 1)
            round_.reconciled = [FakeOutcome(index % 50)]
            round_.skipped_offline = ["Q", "P" if index % 2 else "Q"]
            report.rounds.append(round_)
        return report

    def test_decisions_dedup_preserves_first_seen_order(self):
        report = self._many_round_report()
        accepted = report.accepted("P")
        assert accepted == ["t0", "t-dup"] + [f"t{i}" for i in range(1, 50)]
        assert len(accepted) == len(set(accepted))

    def test_skipped_offline_dedup_preserves_first_seen_order(self):
        report = self._many_round_report()
        assert report.skipped_offline == ["Q", "P"]

    def test_real_sync_decisions_have_no_duplicates(self):
        cdss = build_system()
        cdss.peer("Alice").insert("R", (1, "x"))
        cdss.peer("Alice").insert("R", (2, "y"))
        report = cdss.sync()
        for peer in PEERS:
            for kind in (report.accepted, report.rejected, report.deferred):
                ids = kind(peer)
                assert len(ids) == len(set(ids))


class TestGossipPhaseSkip:
    def test_quiescent_final_round_moves_no_gossip_bytes(self):
        cdss = build_system(sync_mode="gossip")
        cdss.peer("Alice").insert("R", (1, "x"))
        report = cdss.sync()
        assert report.converged
        rounds_after_sync = cdss.gossip.rounds_run
        # A fully quiescent extra round: nothing published, so the gossip
        # anti-entropy phase is skipped outright — no epidemic round runs
        # and the only traffic is reconcile's cheap per-peer catch-up.
        before = cdss.network.message_stats()
        round_ = cdss.sync_round()
        after = cdss.network.message_stats()
        assert round_.is_quiescent()
        assert cdss.gossip.rounds_run == rounds_after_sync
        gossip_delta = after["bytes"] - before["bytes"]
        messages_delta = after["messages"] - before["messages"]
        # Exactly one catch-up session (two challenge messages) per online
        # peer; a gossip fan-out would have moved strictly more.
        assert messages_delta == 2 * len(PEERS)
        assert gossip_delta == sum(
            event.size
            for event in cdss.network.message_trace()[-messages_delta:]
            if event.kind.startswith("challenge")
        )

    def test_stale_reconnected_peer_still_catches_up(self):
        cdss = build_system(sync_mode="gossip")
        cdss.peer("Alice").insert("R", (1, "x"))
        cdss.sync()
        cdss.set_online("Carol", False)
        cdss.peer("Alice").insert("R", (2, "y"))
        report = cdss.sync()
        assert report.skipped_offline == ["Carol"]
        cdss.set_online("Carol", True)
        rounds_before = cdss.gossip.rounds_run
        report = cdss.sync()
        assert report.converged
        # Nothing was published, so no epidemic round ran; Carol still got
        # the missed entries via reconcile's direct archive catch-up.
        assert cdss.gossip.rounds_run == rounds_before
        carol = cdss.peer("Carol").instance.snapshot().get("R", frozenset())
        assert len(carol) == 2
