"""The provenance graph's dense-id storage against the representation it replaced.

``ProvenanceGraph`` interns ``(relation, values)`` to integer ids, keeps one
flat record per derivation and builds ``TupleNode``/``DerivationNode`` only
when asked.  Three things are pinned here:

* behaviour: after any sequence of edits (compared after each edit, or only
  at drawn checkpoints so unflushed edits pile up) the inspection API, the
  unsupported set and every polynomial agree with ``ModelGraph`` — the old
  dict-of-nodes representation, kept here as the oracle — expanded by
  ``reference_polynomial``, which never touches the graph's storage; one
  tuple's adjacency entries walk through every shape they have;
* mechanism: recording a firing hashes each participating row once;
* memory: bytes retained per derivation on a fixed chain.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProvenanceError
from repro.provenance.graph import (
    _TUPLE_ADJACENCY,
    DerivationNode,
    ProvenanceGraph,
    TupleNode,
    reference_polynomial,
)


class ModelGraph:
    """Reference oracle: nodes stored as dataclasses in dicts keyed by
    ``(relation, values)``, exactly what ``reference_polynomial`` walks."""

    def __init__(self, annotate_mappings: bool) -> None:
        self.annotate_mappings = annotate_mappings
        self.nodes: dict[tuple, TupleNode] = {}
        self.firings: dict[tuple, DerivationNode] = {}
        self.by_target: dict[tuple, list[DerivationNode]] = defaultdict(list)
        self.by_source: dict[tuple, list[DerivationNode]] = defaultdict(list)

    def add_base_tuple(self, relation, values, variable=None) -> TupleNode:
        node = self.nodes.get((relation, values))
        if node is None or not node.is_base:
            rendered = ",".join(str(value) for value in values)
            variable = variable or f"{relation}({rendered})"
            node = self.nodes[(relation, values)] = TupleNode(relation, values, True, variable)
        return node

    def add_derived_tuple(self, relation, values) -> TupleNode:
        return self.nodes.setdefault((relation, values), TupleNode(relation, values, False))

    def add_derivation(self, mapping_id, target, sources) -> None:
        for relation, values in (target, *sources):
            self.add_derived_tuple(relation, values)
        rule_variable = f"m:{mapping_id}" if self.annotate_mappings else None
        firing = DerivationNode(mapping_id, target, tuple(sources), rule_variable)
        if firing.key not in self.firings:
            self.firings[firing.key] = firing
            self.by_target[target].append(firing)
            for source in dict.fromkeys(sources):
                self.by_source[source].append(firing)

    def remove_base_tuple(self, relation, values) -> bool:
        node = self.nodes.get((relation, values))
        if node is None or not node.is_base:
            return False
        self.nodes[(relation, values)] = TupleNode(relation, values, False)
        return True

    # What reference_polynomial asks of a graph.
    def node(self, relation, values):
        return self.nodes.get((relation, values))

    def derivations_of(self, relation, values):
        return self.by_target[(relation, values)]


RELATIONS = st.sampled_from("AB")
VALUES = st.tuples(st.integers(0, 2))
KEYS = st.tuples(RELATIONS, VALUES)
#: ``(method name, *arguments)``; graph and model take the same calls.
EDITS = st.one_of(
    st.tuples(st.just("add_base_tuple"), RELATIONS, VALUES, st.sampled_from([None, "v", "w"])),
    st.tuples(st.just("add_derived_tuple"), RELATIONS, VALUES),
    st.tuples(st.just("remove_base_tuple"), RELATIONS, VALUES),
    st.tuples(
        st.just("add_derivation"),
        st.sampled_from(["m1", "m2"]),
        KEYS,
        st.lists(KEYS, min_size=1, max_size=3),
    ),
)


def assert_same(graph: ProvenanceGraph, model: ModelGraph) -> None:
    assert list(graph.tuples()) == list(model.nodes.values())
    assert list(graph.derivations()) == list(model.firings.values())
    assert graph.size() == (len(model.nodes), len(model.firings))
    assert graph.base_variables() == {
        node.variable: key for key, node in model.nodes.items() if node.is_base
    }
    unsupported = set()
    for key, node in model.nodes.items():
        assert graph.node(*key) == node
        assert graph.derivations_of(*key) == model.by_target[key]
        assert graph.derivations_from(*key) == model.by_source[key]
        expected = reference_polynomial(model, *key)
        assert graph.polynomial_for(*key, max_monomials=None) == expected
        if expected.is_zero():
            unsupported.add(key)
    assert set(graph.unsupported_tuples()) == unsupported
    assert graph.node("Z", (0,)) is None and graph.derivations_from("Z", (0,)) == []


@settings(max_examples=150, deadline=None)
@given(annotate=st.booleans(), edits=st.lists(EDITS, max_size=14))
def test_edit_sequences_match_the_model_graph(annotate, edits):
    graph = ProvenanceGraph(annotate_mappings=annotate)
    model = ModelGraph(annotate)
    for name, *arguments in edits:
        assert getattr(graph, name)(*arguments) == getattr(model, name)(*arguments)
        assert_same(graph, model)


@settings(max_examples=150, deadline=None)
@given(
    annotate=st.booleans(),
    edits=st.lists(st.tuples(EDITS, st.booleans()), max_size=20),
)
def test_edit_sequences_match_the_model_graph_at_checkpoints(annotate, edits):
    """As above, but compared (and so flushed) only at drawn checkpoints and
    at the end: the state a run of unflushed edits leaves is checked too."""
    graph = ProvenanceGraph(annotate_mappings=annotate)
    model = ModelGraph(annotate)
    for (name, *arguments), checkpoint in edits:
        assert getattr(graph, name)(*arguments) == getattr(model, name)(*arguments)
        if checkpoint:
            assert_same(graph, model)
    assert_same(graph, model)


def test_one_tuple_walks_every_adjacency_shape():
    """H's entries, as a target and as a source, go through every shape: the
    shared ``()``, the bare record, a tuple of records, and a list past
    ``_TUPLE_ADJACENCY``; the graph agrees with the model at each."""
    graph = ProvenanceGraph()
    model = ModelGraph(False)

    def edit(name, *arguments):
        assert getattr(graph, name)(*arguments) == getattr(model, name)(*arguments)

    def shape(entry) -> str:
        if type(entry) is list:
            return "list"
        if not entry:
            return "empty"
        return "bare" if isinstance(entry[0], str) else "tuple"

    hub = ("H", (0,))
    edit("add_base_tuple", "B", (0,), None)
    edit("add_derived_tuple", *hub)
    (hub_id,) = graph._ids["H"].values()
    seen = {"target": [], "source": []}

    def observe():
        for side, entries in (("target", graph._by_target), ("source", graph._by_source)):
            if not seen[side] or seen[side][-1] != shape(entries[hub_id]):
                seen[side].append(shape(entries[hub_id]))
        assert_same(graph, model)

    observe()
    for index in range(_TUPLE_ADJACENCY + 2):
        edit("add_derivation", "m", hub, [("B", (0,)), ("B", (index,))])
        # The first use repeats its source: the record is indexed once.
        edit("add_derivation", "u", ("T", (index,)), [hub, hub] if index == 0 else [hub])
        observe()
    assert seen == {side: ["empty", "bare", "tuple", "list"] for side in seen}
    assert len(graph.derivations_from(*hub)) == _TUPLE_ADJACENCY + 2

    # A new derived tuple promoted and then demoted before one flush.
    edit("add_derivation", "m", ("N", (0,)), [hub])
    edit("add_base_tuple", "N", (0,), None)
    edit("remove_base_tuple", "N", (0,))
    assert_same(graph, model)


def test_a_flush_visits_changes_in_the_order_they_happened():
    """New tuples are dirty by their id range and older ones by an entry;
    the flush still visits them in the order they changed, so the order
    the unsupported tuples are reported in does not depend on that split."""
    graph = ProvenanceGraph()
    graph.add_base_tuple("B", (0,))
    graph.unsupported_tuples()
    graph.add_derivation("m", ("T", (0,)), [("B", (0,))])
    graph.remove_base_tuple("B", (0,))
    assert graph.unsupported_tuples() == [("B", (0,)), ("T", (0,))]

    graph = ProvenanceGraph()
    graph.add_base_tuple("B", (0,))
    graph.unsupported_tuples()
    graph.remove_base_tuple("B", (0,))
    graph.add_derivation("m", ("T", (0,)), [("B", (0,))])
    assert graph.unsupported_tuples() == [("T", (0,)), ("B", (0,))]

    # A new derived tuple promoted before the flush keeps the flag it was
    # created with (never evaluated), so its cone is walked first.
    graph = ProvenanceGraph()
    graph.add_base_tuple("D", (0,))
    graph.add_derivation("m", ("Z", (0,)), [("D", (0,))])
    graph.add_derivation("m", ("X", (0,)), [("D", (0,))])
    assert graph.unsupported_tuples() == []
    graph.remove_base_tuple("D", (0,))
    graph.add_derived_tuple("N", (0,))
    graph.add_base_tuple("N", (0,))
    graph.add_derivation("j", ("X", (0,)), [("N", (0,)), ("Z", (0,))])
    assert graph.unsupported_tuples() == [("X", (0,)), ("D", (0,)), ("Z", (0,))]


def test_a_mapping_id_must_be_a_string():
    graph = ProvenanceGraph()
    with pytest.raises(ProvenanceError):
        graph.add_derivations(7, ("T", "R"), [((0,), (1,))])
    assert graph.size() == (0, 0)


class CountedValue:
    """A column value that counts how often it (hence its row) is hashed."""

    def __init__(self, value) -> None:
        self.value = value
        self.hashes = 0

    def __hash__(self) -> int:
        self.hashes += 1
        return hash(self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, CountedValue) and self.value == other.value


def test_a_firing_hashes_each_participating_row_once():
    cells = {name: CountedValue(name) for name in ("o", "p", "s", "t")}
    graph = ProvenanceGraph()
    for name in "ops":
        graph.add_base_tuple(name.upper(), (cells[name], 1))
    firing = ("m", ("T", (cells["t"], 1)), [(name.upper(), (cells[name], 1)) for name in "ops"])

    def hashes_of_one_recording() -> dict[str, int]:
        for cell in cells.values():
            cell.hashes = 0
        graph.add_derivation(*firing)
        return {name: cell.hashes for name, cell in cells.items()}

    # One lookup per row; the never-seen target row is hashed again to intern it.
    assert hashes_of_one_recording() == {"o": 1, "p": 1, "s": 1, "t": 2}
    assert graph.size() == (4, 1)
    # A duplicate firing costs the lookups and stores nothing.
    assert hashes_of_one_recording() == {"o": 1, "p": 1, "s": 1, "t": 1}
    assert graph.size() == (4, 1)


def test_retained_bytes_per_derivation_on_a_chain():
    """60k tuples, each derived from the one before: the graph keeps at most
    300 B per derivation.  On CPython 3.11 the dict-of-nodes representation
    kept about 860 B, the dense-id one 360 B, and with bare one-record
    adjacency entries and new tuples dirty by id range 221 B; the bound
    leaves about 35% for other interpreter versions.  The rows are the
    caller's."""
    length = 60_000
    rows = [(index,) for index in range(length + 1)]
    gc.collect()
    tracemalloc.start()
    try:
        graph = ProvenanceGraph()
        graph.add_base_tuple("T", rows[0], "t0")
        for index in range(1, length + 1):
            graph.add_derivation("m", ("T", rows[index]), [("T", rows[index - 1])])
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.size() == (length + 1, length)
    assert retained / length <= 300
