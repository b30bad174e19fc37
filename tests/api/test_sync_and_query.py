"""sync() orchestration and the ad-hoc query API.

Includes the seed-equivalence check the redesign promises: building the
Figure-2 network from its textual spec and running a single ``sync()``
reproduces exactly the peer snapshots of the hand-wired network driven by
manual publish/reconcile loops.  Also covers the seeded latency model and
virtual clock the loop prices traffic on, ``SyncError`` carrying the partial
report, order-preserving ``SyncReport`` dedup, and the quiescent round
skipping the gossip anti-entropy phase.
"""

import inspect

import pytest

from repro import CDSS, PeerSchema, SyncError, TrustPolicy
from repro.api.query import run_query
from repro.api.sync import SyncReport, SyncRound
from repro.config import SyncConfig, SystemConfig
from repro.core.mapping import identity_mapping, join_mapping, split_mapping
from repro.datalog.provenance_eval import ProvenanceDatabase
from repro.errors import NetworkError, PeerError, UnknownRelationError
from repro.p2p.network import LatencyModel, Network, VirtualClock
from repro.provenance.graph import ProvenanceGraph, reference_polynomial
from repro.workloads.bioinformatics import (
    BioDataGenerator,
    FIGURE2_SPEC,
    crete_trust_policy,
    sigma1_schema,
    sigma2_schema,
)


def _load_figure2_data(cdss: CDSS) -> None:
    """The same deterministic workload at both networks under comparison."""
    generator = BioDataGenerator(seed=23)
    generator.load_sigma1(
        cdss.peer("Alaska"), organisms=5, proteins=6, sequences_per_pair=0.5
    )
    generator.load_sigma2(cdss.peer("Dresden"), pairs=4)
    cdss.import_existing_data("Alaska")
    cdss.import_existing_data("Dresden")
    generator.insertion_transactions(cdss.peer("Beijing"), count=3, start_index=200)


def _hand_wired_figure2() -> CDSS:
    """The Figure-2 network exactly as the seed wired it, imperatively."""
    cdss = CDSS()
    cdss.add_peer("Alaska", sigma1_schema(), TrustPolicy.trust_all("Alaska"))
    cdss.add_peer("Beijing", sigma1_schema(), TrustPolicy.trust_all("Beijing"))
    cdss.add_peer("Crete", sigma2_schema(), crete_trust_policy())
    cdss.add_peer("Dresden", sigma2_schema(), TrustPolicy.trust_all("Dresden"))
    sigma1 = cdss.peer("Alaska").schema.relations
    sigma2 = cdss.peer("Crete").schema.relations
    cdss.add_mappings(identity_mapping("M_AB", "Alaska", "Beijing", sigma1))
    cdss.add_mappings(identity_mapping("M_BA", "Beijing", "Alaska", sigma1))
    cdss.add_mappings(identity_mapping("M_CD", "Crete", "Dresden", sigma2))
    cdss.add_mappings(identity_mapping("M_DC", "Dresden", "Crete", sigma2))
    cdss.add_mapping(
        join_mapping("M_AC", "Alaska", "Crete", "OPS(org, prot, seq)",
                     ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"])
    )
    cdss.add_mapping(
        split_mapping("M_CA", "Crete", "Alaska",
                      ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
                      "OPS(org, prot, seq)")
    )
    return cdss


class TestSeedEquivalence:
    def test_from_spec_plus_sync_matches_manual_loops(self):
        manual = _hand_wired_figure2()
        _load_figure2_data(manual)
        for name in manual.catalog.peer_names():
            manual.publish(name)
        for name in manual.catalog.peer_names():
            manual.reconcile(name)

        declarative = CDSS.from_spec(FIGURE2_SPEC)
        _load_figure2_data(declarative)
        report = declarative.sync()
        assert report.converged

        for name in manual.catalog.peer_names():
            assert declarative.peer_snapshot(name) == manual.peer_snapshot(name), name


class TestSync:
    def test_sync_reaches_quiescence_and_reports(self, two_peer_system):
        two_peer_system.peer("Source").insert("R", (1, "x"))
        report = two_peer_system.sync()
        assert report.converged
        assert report.round_count == 2  # one working round + one quiescent check
        assert report.rounds[-1].is_quiescent()
        assert report.published_transactions == 1
        assert report.accepted("Target") == ["Source-T1"]
        assert report.open_conflicts == {"Source": 0, "Target": 0}
        serialized = report.to_dict()
        assert serialized["converged"] is True
        assert serialized["decisions"]["Target"]["accepted"] == 1

    def test_sync_on_idle_network_is_single_quiescent_round(self, two_peer_system):
        report = two_peer_system.sync()
        assert report.converged and report.round_count == 1

    def test_sync_subset_restricts_participants(self, figure2):
        figure2.alaska.insert("O", ("E. coli", 1))
        report = figure2.cdss.sync(peers=["Alaska", "Beijing"])
        assert set(report.peers) == {"Alaska", "Beijing"}
        assert figure2.beijing.instance.count("O") == 1
        # Dresden did not participate, so nothing reached it yet.
        assert figure2.dresden.instance.count("OPS") == 0

    def test_sync_skips_and_reports_offline_peers(self, figure2):
        cdss = figure2.cdss
        figure2.beijing.insert("O", ("M. musculus", 2))
        cdss.sync(peers=["Beijing"])
        cdss.set_online("Beijing", False)
        cdss.set_online("Crete", False)
        report = cdss.sync()
        assert set(report.skipped_offline) == {"Beijing", "Crete"}
        assert set(report.to_dict()["skipped_offline"]) == {"Beijing", "Crete"}
        # Alaska still received Beijing's archived update.
        assert any(values[0] == "M. musculus" for values in figure2.alaska.tuples("O"))

    def test_sync_unknown_peer_rejected(self, two_peer_system):
        with pytest.raises(PeerError, match="Ghost"):
            two_peer_system.sync(peers=["Ghost"])

    def test_sync_round_still_rejects_an_unknown_peer(self, two_peer_system):
        with pytest.raises(PeerError, match="Ghost"):
            two_peer_system.sync_round(["Source", "Ghost"])

    def test_wide_network_half_offline_validates_names_once(self, monkeypatch):
        names = [f"P{index:03d}" for index in range(300)]
        lines = ["network wide"]
        for name in names:
            lines += [f"peer {name}", "  relation R(a, b) key(a)", "  trust * 5"]
        for name in names[1:10]:
            lines.append(f"mapping [M_{name}] @P000.R(a, b) :- @{name}.R(a, b).")
        cdss = CDSS.from_spec("\n".join(lines))
        online, offline = names[0::2], names[1::2]
        for name in offline:
            cdss.set_online(name, False)
        for index, name in enumerate(names[:20]):
            cdss.peer(name).insert("R", (index, name))

        validated: list[str] = []
        has_peer = cdss.catalog.has_peer
        monkeypatch.setattr(
            cdss.catalog, "has_peer", lambda name: validated.append(name) or has_peer(name)
        )
        report = cdss.sync()
        assert validated == names  # once per sync, not once more per round

        assert report.converged and report.round_count == 2
        assert report.skipped_offline == offline
        for round_ in report.rounds:
            assert round_.skipped_offline == offline
            assert [outcome.peer for outcome in round_.published] == online
            assert [outcome.peer for outcome in round_.reconciled] == online
        assert report.published_transactions == 10
        assert report.rounds[0].candidates_considered == 10 * len(online)
        assert report.accepted("P000") == [f"{name}-T1" for name in online[1:5]]
        assert cdss.peer("P000").tuples("R") == {(index, names[index]) for index in range(0, 10, 2)}

    def test_sync_round_is_one_pass(self, two_peer_system):
        two_peer_system.peer("Source").insert("R", (1, "x"))
        round_ = two_peer_system.sync_round()
        assert round_.published_transactions == 1
        assert not round_.is_quiescent()
        assert two_peer_system.sync_round().is_quiescent()

    def test_sync_max_rounds_exhaustion_raises(self, two_peer_system):
        two_peer_system.peer("Source").insert("R", (1, "x"))
        with pytest.raises(SyncError, match="quiescence"):
            two_peer_system.sync(max_rounds=0)

    def test_sync_converges_with_deferred_conflicts_open(self, figure2):
        cdss = figure2.cdss
        for peer, sequence in ((figure2.beijing, "AAAA"), (figure2.alaska, "CCCC")):
            builder = peer.new_transaction()
            builder.insert("O", ("S. cerevisiae", 5))
            builder.insert("P", ("hsp70", 14))
            builder.insert("S", (5, 14, sequence))
            peer.commit(builder)
        report = cdss.sync()
        # Dresden trusts both equally: the conflict is deferred, not a livelock.
        assert report.converged
        assert report.open_conflicts["Dresden"] == 1
        assert len(report.deferred("Dresden")) == 2
        # A second sync is immediately quiescent and keeps the conflict open.
        again = cdss.sync()
        assert again.round_count == 1
        assert again.open_conflicts["Dresden"] == 1


PEERS = ("Alice", "Bob", "Carol")


def build_chain(sync_mode: str = "cursor") -> CDSS:
    """A three-peer chain Alice -> Bob -> Carol with full trust."""
    cdss = CDSS(SystemConfig(sync=SyncConfig(mode=sync_mode)))
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


class TestVirtualClock:
    def test_advances_and_never_rewinds(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.0) == 1.5
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
        second = network.transmit("a", "b", "test", 10)
        assert network.clock.now == pytest.approx(first + second)
        assert network.link_sequences() == {("a", "b"): 2}
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


class TestSyncErrorReport:
    def test_partial_report_is_attached_at_max_rounds(self):
        cdss = build_chain()
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
        cdss = build_chain()
        cdss.peer("Alice").insert("R", (1, "x"))
        cdss.peer("Alice").insert("R", (2, "y"))
        report = cdss.sync()
        for peer in PEERS:
            for kind in (report.accepted, report.rejected, report.deferred):
                ids = kind(peer)
                assert len(ids) == len(set(ids))


class TestGossipPhaseSkip:
    def test_quiescent_final_round_moves_no_gossip_bytes(self):
        cdss = build_chain(sync_mode="gossip")
        cdss.peer("Alice").insert("R", (1, "x"))
        report = cdss.sync()
        assert report.converged
        rounds_after_sync = cdss.gossip.rounds_run
        # A fully quiescent extra round: nothing published, so the gossip
        # anti-entropy phase is skipped outright — no epidemic round runs
        # and reconcile's per-peer catch-up sends nothing.
        before = cdss.network.message_stats()
        sessions_before = cdss.gossip.summary()["sessions"]
        round_ = cdss.sync_round()
        after = cdss.network.message_stats()
        assert round_.is_quiescent()
        assert cdss.gossip.rounds_run == rounds_after_sync
        # Re-recorded for the certified catch-up.  This read 2 * len(PEERS)
        # messages (one two-challenge session per online peer) and their
        # 48-byte challenges.  The converged phase certified every peer at
        # the store's generation and nothing was archived since, so each
        # catch-up is settled without a session: no message, no byte.
        assert after["messages"] - before["messages"] == 0
        assert after["bytes"] - before["bytes"] == 0
        assert cdss.gossip.summary()["sessions"] == sessions_before

    def test_stale_reconnected_peer_still_catches_up(self):
        cdss = build_chain(sync_mode="gossip")
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


class TestQuery:
    def test_query_joins_local_relations(self, figure2):
        figure2.crete.insert("OPS", ("E. coli", "lacZ", "ATG"))
        figure2.crete.insert("OPS", ("E. coli", "recA", "GGG"))
        result = figure2.cdss.query(
            "Crete", "Answer(prot) :- OPS(org, prot, seq), org = 'E. coli'."
        )
        assert result.rows == frozenset({("lacZ",), ("recA",)})
        assert ("lacZ",) in result and len(result) == 2

    def test_query_multi_rule_program(self, two_peer_system):
        source = two_peer_system.peer("Source")
        source.insert("R", (1, "x"))
        source.insert("R", (2, "y"))
        result = two_peer_system.query(
            "Source",
            """
            Big(k, v) :- R(k, v), k > 1.
            Answer(v) :- Big(k, v).
            """,
        )
        assert result.predicate == "Big"
        assert result.rows == frozenset({(2, "y")})

    def test_query_with_provenance_annotates_rows(self, figure2):
        figure2.crete.insert("OPS", ("E. coli", "lacZ", "ATG"))
        result = figure2.cdss.query(
            "Crete", "Answer(org, seq) :- OPS(org, prot, seq).", provenance=True
        )
        row = ("E. coli", "ATG")
        assert row in result.rows
        assert "OPS" in str(result.provenance[row])
        assert result.to_dict()["provenance"]

    def test_query_unknown_relation_rejected(self, figure2):
        with pytest.raises(UnknownRelationError, match="Nope"):
            figure2.cdss.query("Crete", "Answer(x) :- Nope(x).")

    def test_query_unknown_peer_rejected(self, figure2):
        with pytest.raises(PeerError):
            figure2.cdss.query("Ghost", "Answer(x) :- OPS(x, y, z).")


@pytest.mark.parametrize(
    "function, name",
    [
        (CDSS.query, "max_depth"),
        (run_query, "max_depth"),
        (ProvenanceDatabase.polynomial, "max_depth"),
        (ProvenanceGraph.polynomial_for, "max_depth"),
        (ProvenanceGraph.evaluate, "max_iterations"),
    ],
    ids=lambda item: getattr(item, "__qualname__", item),
)
def test_the_ignored_limits_are_not_parameters(function, name):
    """Polynomial expansion is bounded by ``max_monomials`` and semiring
    evaluation on the graph always terminates, so a depth or iteration limit here would
    be a parameter nothing reads: passing one is a ``TypeError``."""
    parameters = inspect.signature(function).parameters.values()
    assert name not in {parameter.name for parameter in parameters}
    assert all(parameter.kind is not parameter.VAR_KEYWORD for parameter in parameters)
    # The reference walk, unlike these, enforces its depth bound.
    assert "max_depth" in inspect.signature(reference_polynomial).parameters
