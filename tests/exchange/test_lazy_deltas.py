"""Translation deltas sort a peer's changes when they are first read.

``ExchangeEngine`` used to repr-sort every changed tuple of every
transaction into per-peer lists as it processed it.  The deltas now keep the
engine's unsorted change sets and build a peer's list on first read; the
eager grouping lives on here as the oracle (:func:`eager_collect`), and the
lazily read ``inserted``/``deleted`` must equal it, order included.
Counting, ``touches`` and the ``exchange.delta.*`` metrics never sort.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.exchange import engine as engine_module
from repro.exchange.engine import ExchangeEngine, PeerChanges
from repro.exchange.rules import is_published_relation, split_derived
from repro.workloads.bioinformatics import build_figure2_network


def eager_collect(changes, accumulator) -> None:
    """The grouping ``ExchangeEngine._collect`` did before deltas were lazy."""
    for qualified, tuples in changes.items():
        if is_published_relation(qualified):
            continue
        peer, relation = split_derived(qualified)
        for values in sorted(tuples, key=repr):
            accumulator[peer].append((relation, values))


def _fig2_stream(seed: int, steps: int):
    """Alaska and Beijing insert O/P/S triples, modify and delete S rows;
    Crete inserts OPS rows (labelled nulls reach Alaska and Beijing)."""
    rng = random.Random(seed)
    network = build_figure2_network()
    live: dict[str, list[tuple]] = {"Alaska": [], "Beijing": []}
    counter = 0
    for _ in range(steps):
        peer_name = rng.choice(("Alaska", "Beijing", "Crete"))
        peer = network.cdss.peer(peer_name)
        builder = peer.new_transaction()
        if peer_name == "Crete":
            counter += 1
            builder.insert("OPS", (f"org{counter}", f"prot{counter}", f"seq{counter}"))
        else:
            held = live[peer_name]
            for _ in range(rng.randint(1, 3)):
                counter += 2
                oid, pid = counter, counter + 1
                builder.insert("O", (f"org{oid}", oid))
                builder.insert("P", (f"prot{pid}", pid))
                held.append((oid, pid, f"seq{oid}"))
                builder.insert("S", held[-1])
            if len(held) > 2 and rng.random() < 0.5:
                old = held.pop(rng.randrange(len(held) - 1))
                held.append((old[0], old[1], f"new{counter}"))
                builder.modify("S", old, held[-1])
            if len(held) > 3 and rng.random() < 0.4:
                builder.delete("S", held.pop(rng.randrange(len(held) - 1)))
        peer.commit(builder)
        network.cdss.publish(peer_name)
    return network.cdss


@pytest.mark.parametrize("seed", range(4))
def test_lazily_read_deltas_equal_the_eager_grouping(seed, monkeypatch):
    # Every change set the engine groups is grouped eagerly as well, keyed
    # by the delta side it goes to.
    eager: dict[int, tuple[PeerChanges, dict]] = {}
    collect = ExchangeEngine._collect

    def both(changes, accumulator):
        entry = eager.setdefault(id(accumulator), (accumulator, defaultdict(list)))
        eager_collect(changes, entry[1])
        collect(changes, accumulator)

    monkeypatch.setattr(ExchangeEngine, "_collect", staticmethod(both))
    engine = _fig2_stream(seed, steps=24).engine
    modified = deleted_any = False
    for txn_id in engine.processed_transactions():
        delta = engine.delta_for(txn_id)
        inserted = dict(eager.get(id(delta.inserted), (None, {}))[1])
        deleted = dict(eager.get(id(delta.deleted), (None, {}))[1])
        counts = (delta.inserted.count(), delta.deleted.count(), delta.change_count())
        assert counts == (
            sum(map(len, inserted.values())),
            sum(map(len, deleted.values())),
            sum(map(len, inserted.values())) + sum(map(len, deleted.values())),
        )
        assert list(delta.inserted) == list(inserted)
        assert list(delta.deleted) == list(deleted)
        assert dict(delta.inserted) == inserted
        assert dict(delta.deleted) == deleted
        modified |= bool(inserted) and bool(deleted)
        deleted_any |= bool(deleted)
    assert modified and deleted_any, "the stream exercises no modify or delete"


def test_a_publish_only_run_never_sorts(monkeypatch):
    def no_sorting(*_args, **_kwargs):
        raise AssertionError("a delta was sorted")

    monkeypatch.setattr(engine_module, "sorted", no_sorting, raising=False)
    network = build_figure2_network()
    for step in range(5):
        builder = network.alaska.new_transaction()
        for index in range(3):
            oid = 10 * step + index
            builder.insert("O", (f"org{oid}", oid))
            builder.insert("P", (f"prot{oid}", oid + 1000))
            builder.insert("S", (oid, oid + 1000, f"seq{oid}"))
        network.alaska.commit(builder)
        network.cdss.publish("Alaska")
    engine = network.cdss.engine
    deltas = [engine.delta_for(txn_id) for txn_id in engine.processed_transactions()]
    assert all(delta.touches("Crete") and delta.change_count() for delta in deltas)
    assert engine.touching("Crete", 0)
    assert network.cdss.obs.metrics.counter_value("exchange.delta.insertions") > 0
    with pytest.raises(AssertionError, match="a delta was sorted"):
        deltas[0].inserted["Crete"]


def test_reading_a_peer_sorts_it_once_and_drops_its_chunks():
    changes = PeerChanges()
    changes.add("P", "R", {(3,), (1,), (2,)})
    changes.add("P", "S", {("b",), ("a",)})
    changes.add("Q", "R", set())  # nothing changed: not a peer of the delta
    assert list(changes) == ["P"] and changes.count("P") == 5 and changes.count("Q") == 0
    first = changes["P"]
    assert first == [("R", (1,)), ("R", (2,)), ("R", (3,)), ("S", ("a",)), ("S", ("b",))]
    assert changes["P"] is first and not changes._chunks
    assert changes.get("Q") is None

