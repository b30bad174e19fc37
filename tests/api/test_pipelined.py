"""``SyncReport.pipelined``: the pipelined schedule as an analysis of a serial run.

The serial loop records every transfer it prices (publish uplinks, reconcile
downlinks, each publication's replica fan-out hosts); ``pipelined`` replays
them through a shared worker pool and bounded per-peer delivery queues.  The
oracle fixture ``pipelined_oracle.json`` holds the scheduler accounting of
the pipelined asyncio runtime this analysis replaced, one dict per
``sync()`` call, recorded on the scenarios below.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from repro import CDSS
from repro.api.sync import SyncReport
from repro.errors import SyncError
from repro.p2p.network import LatencyModel

ORACLE = Path(__file__).with_name("pipelined_oracle.json")

#: ``(workers, queue_depth)`` settings the oracle was recorded under; the
#: one-slot queues make fan-outs stall behind reconcile downlinks.
SETTINGS = ((8, 4), (2, 1), (1, 3))
SEEDS = (3, 7, 11)


def _peer(name: str) -> list[str]:
    return [f"peer {name}", "  relation R(a, b) key(a)", "  trust * 5"]


def _star(seed: int, spokes: int, head: list[str]) -> CDSS:
    names = [f"S{index:03d}" for index in range(spokes)]
    lines = ["network star", *head, *_peer("Hub")]
    for name in names:
        lines.extend(_peer(name))
    lines.extend(f"mapping [M_{name}] @Hub.R(a, b) :- @{name}.R(a, b)." for name in names)
    cdss = CDSS.from_spec("\n".join(lines))
    cdss.network.set_latency_model(LatencyModel(seed=seed))
    return cdss


def _insert_some(cdss: CDSS, rng: random.Random, names: list[str], count: int) -> None:
    for name in rng.sample(names, count):
        cdss.peer(name).insert("R", (rng.randrange(10**9), name))


def star_centralized(seed: int, sync) -> list[SyncReport]:
    """The 101-peer ``star_sync`` shape: four steps of six publishers."""
    cdss = _star(seed, 100, [])
    rng = random.Random(seed)
    spokes = [name for name in cdss.catalog.peer_names() if name != "Hub"]
    reports = []
    for _ in range(4):
        _insert_some(cdss, rng, spokes, 6)
        reports.append(sync(cdss))
    return reports


def star_distributed(seed: int, sync) -> list[SyncReport]:
    """The same star on a sharded, three-way replicated store: one sync.

    One call only: the replaced runtime also drew the fan-outs' delays from
    the network's link counters, which a serial run never advances, so a
    second call would start both from different counters by construction.
    """
    cdss = _star(seed, 100, ["store distributed shards 4 replication 3"])
    rng = random.Random(seed)
    spokes = [name for name in cdss.catalog.peer_names() if name != "Hub"]
    _insert_some(cdss, rng, spokes, 24)
    return [sync(cdss)]


def gossip_distributed(seed: int, sync) -> list[SyncReport]:
    """Two clusters under gossip on the distributed store, one peer offline."""
    lines = ["network clusters", "store distributed shards 8 replication 2",
             "sync gossip fanout 2 sketch iblt"]
    members = []
    for cluster in range(2):
        lines.extend(_peer(f"H{cluster}"))
        for member in range(5):
            name = f"M{cluster}x{member}"
            members.append(name)
            lines.extend(_peer(name))
            lines.append(f"mapping [M_{name}] @H{cluster}.R(a, b) :- @{name}.R(a, b).")
    cdss = CDSS.from_spec("\n".join(lines))
    cdss.network.set_latency_model(LatencyModel(seed=seed))
    rng = random.Random(seed)
    cdss.set_online(rng.choice(members), False)
    _insert_some(cdss, rng, members, 6)
    return [sync(cdss)]


SCENARIOS = {
    "star_centralized": star_centralized,
    "star_distributed": star_distributed,
    "gossip_distributed": gossip_distributed,
}


@pytest.mark.parametrize("name, seed", list(itertools.product(SCENARIOS, SEEDS)))
def test_pipelined_reproduces_the_recorded_runtime(name, seed):
    oracle = json.loads(ORACLE.read_text())
    reports = SCENARIOS[name](seed, lambda cdss: cdss.sync())
    for workers, depth in SETTINGS:
        expected = oracle[f"{name}/seed={seed}/workers={workers}/queue_depth={depth}"]
        assert len(expected) == len(reports)
        for report, recorded in zip(reports, expected):
            got = report.pipelined(workers, depth)
            recorded = {key: value for key, value in recorded.items() if key != "mode"}
            assert got.keys() == recorded.keys()
            seconds = recorded.pop("virtual_seconds")
            assert got.pop("virtual_seconds") == pytest.approx(seconds, rel=1e-9, abs=0)
            assert got == recorded


def _published_star(seed, spokes=20, head=()):
    cdss = _star(seed, spokes, list(head))
    for index, name in enumerate(cdss.catalog.peer_names()):
        if name != "Hub" and index % 3:
            cdss.peer(name).insert("R", (index, name))
    return cdss


class TestInvariants:
    def test_one_worker_on_the_centralized_store_is_the_serial_clock(self):
        """One transfer slot and no fan-out leave nothing to overlap: the
        pipeline takes exactly as long as the serial loop's clock."""
        cdss = _published_star(3)
        report = cdss.sync()
        accounting = report.pipelined(workers=1)
        assert accounting["virtual_seconds"] == pytest.approx(
            cdss.network.clock.now, rel=1e-12
        )
        assert accounting["transfers"] == sum(len(r.transfers) for r in report.rounds)
        assert accounting["max_in_flight"] == 1

    def test_no_latency_model_means_no_traffic(self):
        cdss = _published_star(3)
        cdss.network.set_latency_model(None)
        report = cdss.sync()
        assert report.published_transactions > 0
        assert all(not round_.transfers for round_ in report.rounds)
        assert report.pipelined() == {
            "workers": 8,
            "queue_depth": 4,
            "virtual_seconds": 0.0,
            "transfers": 0,
            "max_in_flight": 0,
            "backpressure_stalls": 0,
            "max_queue_depth_seen": 0,
        }

    def test_overlap_never_costs_more_than_the_serial_loop(self):
        cdss = _published_star(7)
        report = cdss.sync()
        assert report.pipelined()["virtual_seconds"] < cdss.network.clock.now

    def test_the_analysis_is_pure(self):
        cdss = _published_star(11, head=["store distributed shards 4 replication 3"])
        report = cdss.sync()
        before = (
            json.dumps(report.to_dict(), sort_keys=True, default=str),
            cdss.network.clock.now,
            cdss.network.link_sequences(),
            cdss.network.message_stats(),
        )
        first = report.pipelined()
        assert report.pipelined(workers=2, queue_depth=1) != first
        assert report.pipelined() == first
        after = (
            json.dumps(report.to_dict(), sort_keys=True, default=str),
            cdss.network.clock.now,
            cdss.network.link_sequences(),
            cdss.network.message_stats(),
        )
        assert after == before

    def test_transfers_stay_out_of_the_serialized_report(self):
        report = _published_star(3).sync()
        assert report.rounds[0].transfers
        assert "transfers" not in report.rounds[0].to_dict()
        assert "latency" not in report.to_dict() and "runtime" not in report.to_dict()


class TestAdmissionControl:
    @pytest.mark.parametrize("workers, depth", SETTINGS)
    def test_the_bounds_hold(self, workers, depth):
        cdss = _published_star(7, head=["store distributed shards 1 replication 3"])
        accounting = cdss.sync().pipelined(workers, depth)
        assert accounting["transfers"] > 0
        assert 1 <= accounting["max_in_flight"] <= workers
        assert 1 <= accounting["max_queue_depth_seen"] <= depth

    def test_a_one_slot_queue_stalls_its_producers(self):
        cdss = _published_star(7, head=["store distributed shards 1 replication 3"])
        report = cdss.sync()
        assert report.pipelined(workers=16, queue_depth=1)["backpressure_stalls"] > 0
        assert report.pipelined(workers=16, queue_depth=64)["backpressure_stalls"] == 0

    @pytest.mark.parametrize("bad", [{"workers": 0}, {"queue_depth": 0}])
    def test_floors_are_validated(self, bad):
        with pytest.raises(SyncError):
            _published_star(3).sync().pipelined(**bad)
