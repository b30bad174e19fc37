"""One fault in update exchange leaves the system live and consistent.

``CDSS.publish`` archives a batch before it exchanges it, so the archive is
the log and the exchange engine is a fold over it.  A fault part-way
through the exchange must not leave a half-applied engine behind: the next
access of ``CDSS.engine`` rebuilds it from the archive, the faulted entry
included.  Each case below raises once (or twice) inside the engine, right
after a datalog insertion has been applied, then syncs again and compares
the end state with a run that saw no fault.
"""

from __future__ import annotations

import pytest

from repro.config import StoreConfig, SyncConfig, SystemConfig
from repro.core.schema import PeerSchema
from repro.datalog.incremental import IncrementalEngine
from repro.workloads.bioinformatics import build_figure2_network


class InjectedFault(RuntimeError):
    pass


class FaultAfterInsertions:
    """Patch ``IncrementalEngine.apply_insertions`` to raise *after* its
    ``n``-th call (counted from arming) has changed the database, for each
    ``n`` in ``calls``: the datalog state then holds an update that the
    exchange engine never recorded."""

    def __init__(self, monkeypatch, calls: set[int]) -> None:
        self.calls = calls
        self.count = 0
        self.raised = 0
        original = IncrementalEngine.apply_insertions

        def apply_insertions(engine, facts):
            result = original(engine, facts)
            self.count += 1
            if self.count in self.calls:
                self.raised += 1
                raise InjectedFault(f"fault after insertion call {self.count}")
            return result

        monkeypatch.setattr(IncrementalEngine, "apply_insertions", apply_insertions)


def prepare(network) -> None:
    """A synced start: exchanged rows, labelled nulls from the split
    mapping and a deferred conflict at Alaska and Beijing."""
    alaska, crete, dresden = network.alaska, network.crete, network.dresden
    builder = alaska.new_transaction()
    builder.insert("O", ("E. coli", 1))
    builder.insert("P", ("recA", 11))
    builder.insert("S", (1, 11, "ATGGCG"))
    alaska.commit(builder)
    crete.insert("OPS", ("H. sapiens", "BRCA1", "GGCT"))
    crete.insert("OPS", ("M. musculus", "p53", "AAAA"))
    dresden.insert("OPS", ("M. musculus", "p53", "CCCC"))
    network.cdss.sync()


def commit_two(network) -> None:
    """Two Alaska transactions for one publish: an insert and a modify."""
    alaska = network.alaska
    builder = alaska.new_transaction()
    builder.insert("O", ("S. cerevisiae", 2))
    builder.insert("P", ("gal4", 12))
    builder.insert("S", (2, 12, "GGATCC"))
    alaska.commit(builder)
    alaska.modify("S", (1, 11, "ATGGCG"), (1, 11, "ATGGCGTT"))


def observable(network) -> dict:
    """Each peer's instance, its decision on every archived transaction
    (stored or by the implicit-accept rule) and its open conflicts."""
    cdss = network.cdss
    archived = [entry.txn_id for entry in cdss.store.all_entries()]
    state = {}
    for name in network.peer_names():
        reconciliation = cdss.reconciliation_state(name)
        state[name] = {
            "instance": cdss.peer_snapshot(name),
            "decisions": {txn: reconciliation.decision(txn).value for txn in archived},
            "open_conflicts": sorted(
                (sorted(conflict.txn_ids), conflict.priority)
                for conflict in cdss.open_conflicts(name)
            ),
        }
    return state


#: The archive is the centralized store, the sharded distributed one, or
#: the centralized one read through gossip-converged entry caches.
CONFIGS = {
    "centralized": SystemConfig(),
    "distributed": SystemConfig(store=StoreConfig(backend="distributed")),
    "gossip": SystemConfig(sync=SyncConfig(mode="gossip")),
}


def clean_run(config: SystemConfig) -> dict:
    network = build_figure2_network(config)
    prepare(network)
    commit_two(network)
    network.cdss.sync()
    network.cdss.sync()
    return observable(network)


def faulted_run(
    monkeypatch, config: SystemConfig, calls: set[int], failures: int
) -> tuple[dict, object]:
    """Arm the fault for the publish of ``commit_two`` and sync until a sync
    returns; exactly ``failures`` syncs must raise on the way."""
    network = build_figure2_network(config)
    prepare(network)
    commit_two(network)
    fault = FaultAfterInsertions(monkeypatch, calls)
    for _ in range(failures):
        with pytest.raises(InjectedFault):
            network.cdss.sync()
    network.cdss.sync()
    monkeypatch.undo()
    assert fault.raised == failures
    return observable(network), network.cdss.engine


@pytest.mark.parametrize(
    "calls, failures",
    [
        pytest.param({1}, 1, id="first-entry"),
        pytest.param({2}, 1, id="second-of-two-entries"),
        # The first fault drops the engine; the second lands in the rebuild's
        # replay of the archive (its first entry), and the sync after that
        # rebuilds again from scratch.
        pytest.param({1, 2}, 2, id="first-entry-then-replay"),
        pytest.param({1, 5}, 2, id="first-entry-then-late-in-replay"),
    ],
)
@pytest.mark.parametrize("config", list(CONFIGS))
def test_a_sync_after_an_exchange_fault_ends_as_a_clean_run(monkeypatch, config, calls, failures):
    observed, engine = faulted_run(monkeypatch, CONFIGS[config], calls, failures)
    assert observed == clean_run(CONFIGS[config])
    assert engine.database == engine.reference_database()
    # Every archived transaction was exchanged exactly once.
    assert len(engine.processed_transactions()) == len(set(engine.processed_transactions()))


def test_a_fault_in_a_schema_change_replay_leaves_no_engine(monkeypatch):
    network = build_figure2_network()
    prepare(network)
    commit_two(network)
    network.cdss.sync()
    expected = observable(network)
    reference = network.cdss.engine.database.copy()

    # Adding a peer drops the engine; the next access replays the archive.
    network.cdss.add_peer("Eve", PeerSchema.build("Sigma2", {"OPS": ["org", "prot", "seq"]}))
    fault = FaultAfterInsertions(monkeypatch, {3})
    with pytest.raises(InjectedFault):
        _ = network.cdss.engine
    monkeypatch.undo()
    assert fault.raised == 1
    engine = network.cdss.engine
    assert engine.database == reference
    assert engine.database == engine.reference_database()
    network.cdss.sync()
    assert observable(network) == expected
