"""Integration test: a peer whose local instance lives in SQLite.

The CDSS algorithms only depend on the storage protocol, so a peer backed by
the SQLite backend must behave identically to the in-memory default —
including storing labelled nulls produced by split mappings durably.
"""

from repro import CDSS, PeerSchema
from repro.core.mapping import join_mapping, split_mapping
from repro.core.tuples import has_labelled_nulls
from repro.storage.sqlite_backend import SQLiteInstance
from repro.workloads import build_figure2_network

SIGMA1 = {
    "O": ["org", "oid"],
    "P": ["prot", "pid"],
    "S": ["oid", "pid", "seq"],
}
SIGMA1_KEYS = {"O": ["org"], "P": ["prot"], "S": ["oid", "pid"]}


def test_sqlite_backed_peer_participates_in_exchange(tmp_path):
    cdss = CDSS()
    source = cdss.add_peer(
        "Source",
        PeerSchema.build("Sigma2", {"OPS": ["org", "prot", "seq"]}, {"OPS": ["org", "prot"]}),
    )
    target = cdss.add_peer(
        "Target",
        PeerSchema.build("Sigma1", SIGMA1, SIGMA1_KEYS),
        storage=SQLiteInstance(str(tmp_path / "target.db")),
    )
    cdss.add_mapping(
        split_mapping(
            "M_split", "Source", "Target",
            ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
            "OPS(org, prot, seq)",
        )
    )

    source.insert("OPS", ("H. sapiens", "BRCA1", "GGCTAGCT"))
    cdss.publish("Source")
    outcome = cdss.reconcile("Target")
    assert len(outcome.accepted) == 1

    organisms = set(target.instance.scan("O"))
    assert any(values[0] == "H. sapiens" for values in organisms)
    assert any(has_labelled_nulls(values) for values in organisms)

    # The labelled nulls round-trip through SQLite storage on disk.
    reopened = SQLiteInstance(str(tmp_path / "target.db"))
    assert any(has_labelled_nulls(values) for values in reopened.scan("O"))
    reopened.close()


def test_sqlite_backed_peer_local_edits_publish(tmp_path):
    cdss = CDSS()
    source = cdss.add_peer(
        "Source",
        PeerSchema.build("S", {"R": ["k", "v"]}, {"R": ["k"]}),
        storage=SQLiteInstance(str(tmp_path / "source.db")),
    )
    target = cdss.add_peer("Target", PeerSchema.build("T", {"R": ["k", "v"]}, {"R": ["k"]}))
    cdss.add_mapping(join_mapping("M", "Source", "Target", "R(k, v)", ["R(k, v)"]))

    source.insert("R", (1, "a"))
    source.modify("R", (1, "a"), (1, "b"))
    cdss.publish("Source")
    cdss.reconcile("Target")
    assert target.tuples("R") == frozenset({(1, "b")})
    assert set(source.instance.scan("R")) == {(1, "b")}


def _figure2_stream(network) -> list[dict]:
    """Three orchestrated syncs over an explicit update stream: inserts, a
    split-mapped insert whose translation carries labelled nulls, two
    peers asserting different sequences for one key, a modification and a
    deletion.  Returns each sync's report."""
    cdss = network.cdss
    alaska, crete, dresden = network.alaska, network.crete, network.dresden
    reports = []
    builder = alaska.new_transaction()
    builder.insert("O", ("E. coli", 1))
    builder.insert("P", ("recA", 11))
    builder.insert("S", (1, 11, "ATGGCG"))
    alaska.commit(builder)
    crete.insert("OPS", ("H. sapiens", "BRCA1", "GGCT"))
    reports.append(cdss.sync().to_dict())
    crete.insert("OPS", ("M. musculus", "p53", "AAAA"))
    dresden.insert("OPS", ("M. musculus", "p53", "CCCC"))
    reports.append(cdss.sync().to_dict())
    alaska.modify("S", (1, 11, "ATGGCG"), (1, 11, "ATGGCGTT"))
    crete.delete("OPS", ("H. sapiens", "BRCA1", "GGCT"))
    reports.append(cdss.sync().to_dict())
    return reports


def test_memory_and_sqlite_backends_agree_on_figure2(tmp_path):
    """Backend parity on the full Figure-2 network: the same update stream
    (inserts, a modification, a deletion, a same-key conflict across peers)
    run on an all-SQLite network and on the in-memory default must leave
    every peer with an identical instance."""
    memory_network = build_figure2_network()
    sqlite_network = build_figure2_network(
        storage_factory=lambda name: SQLiteInstance(str(tmp_path / f"{name}.db"))
    )

    # The orchestration saw the same stream on both backends...
    assert _figure2_stream(memory_network) == _figure2_stream(sqlite_network)
    # ...and every peer's instance (including labelled nulls from the split
    # mapping) is identical.
    snapshots = {}
    for name in memory_network.peer_names():
        snapshots[name] = memory_network.cdss.peer_snapshot(name)
        assert snapshots[name] == sqlite_network.cdss.peer_snapshot(name)

    # The stream reaches what it is meant to: a deferred same-key conflict
    # and labelled nulls stored in an instance.
    assert memory_network.cdss.reconciliation_state("Alaska").open_conflicts()
    assert any(
        has_labelled_nulls(values) for rows in snapshots["Beijing"].values() for values in rows
    )

    # The SQLite instances are durable: reopening from disk shows the data.
    crete = sqlite_network.cdss.peer_snapshot("Crete")
    reopened = SQLiteInstance(str(tmp_path / "Crete.db"))
    assert reopened.snapshot() == crete
    reopened.close()
