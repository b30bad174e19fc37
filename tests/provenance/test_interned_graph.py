"""The provenance graph's dense-id storage against the representation it replaced.

``ProvenanceGraph`` interns ``(relation, values)`` to integer ids, keeps one
flat record per derivation and builds ``TupleNode``/``DerivationNode`` only
when asked.  Three things are pinned here:

* behaviour: after any sequence of edits (compared after each edit, or only
  at drawn checkpoints so unflushed edits pile up) the inspection API, the
  unsupported set and every polynomial agree with ``ModelGraph`` — the old
  dict-of-nodes representation, kept here as the oracle — expanded by
  ``reference_polynomial``, which never touches the graph's storage.  The
  edits include batches that draw earlier firings again (in the same batch,
  after the firing that created their target, and in later batches), and
  default-named base tuples answer as a twin given the same names
  explicitly; one tuple's adjacency entries walk through every shape they
  have;
* mechanism: recording a firing hashes each participating row once;
* memory: bytes retained per derivation on a fixed chain, and per
  default-named base tuple.
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
    default_variable_namer,
    reference_polynomial,
)
from repro.provenance.semiring import CountingSemiring


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

    def add_derivations(self, mapping_id, predicates, firings) -> None:
        for target, *rows in firings:
            sources = list(zip(predicates[1:], rows))
            self.add_derivation(mapping_id, (predicates[0], target), sources)

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


def draw_batch(data, fired: list) -> tuple:
    """An ``add_derivations`` edit: a batch of one rule's firings.

    It draws firings of an earlier batch again (``fired`` holds every batch
    so far) or starts a new rule, adds fresh firings, and then repeats some
    of its own firings after the ones they repeat, whose target an earlier
    firing of the batch may have created.
    """
    if fired and data.draw(st.booleans()):
        mapping_id, predicates, earlier = data.draw(st.sampled_from(fired))
        firings = data.draw(st.lists(st.sampled_from(earlier), min_size=1, max_size=2))
    else:
        mapping_id = data.draw(st.sampled_from(["m1", "m2"]))
        predicates = tuple(data.draw(st.lists(RELATIONS, min_size=2, max_size=3)))
        firings = []
    firings += data.draw(st.lists(st.tuples(*[VALUES] * len(predicates)), max_size=3))
    if firings:
        firings += data.draw(st.lists(st.sampled_from(firings), max_size=2))
        fired.append((mapping_id, predicates, firings))
    return ("add_derivations", mapping_id, predicates, firings)


def draw_edit(data, fired: list) -> tuple:
    return draw_batch(data, fired) if data.draw(st.booleans()) else data.draw(EDITS)


def apply_edit(edit: tuple, graph: ProvenanceGraph, named: ProvenanceGraph, model) -> None:
    """Apply one edit to the graph, the model and ``named``, which is given
    every default name explicitly."""
    name, *arguments = edit
    assert getattr(graph, name)(*arguments) == getattr(model, name)(*arguments)
    if name == "add_base_tuple" and arguments[2] is None:
        relation, values, _ = arguments
        arguments[2] = default_variable_namer(relation, values)
    getattr(named, name)(*arguments)


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


def assert_same_names(graph: ProvenanceGraph, named: ProvenanceGraph) -> None:
    """Names rendered when read answer as names stored up front."""
    variables = named.base_variables()
    assert graph.base_variables() == variables
    counts = {variable: index + 2 for index, variable in enumerate(sorted(variables))}
    for node in named.tuples():
        assert graph.node(*node.key).variable == node.variable
        assert graph.polynomial_for(*node.key) == named.polynomial_for(*node.key)
        assert graph.annotation(*node.key, CountingSemiring(), counts) == named.annotation(
            *node.key, CountingSemiring(), counts
        )


@settings(max_examples=150, deadline=None)
@given(annotate=st.booleans(), data=st.data())
def test_edit_sequences_match_the_model_graph(annotate, data):
    graph = ProvenanceGraph(annotate_mappings=annotate)
    named = ProvenanceGraph(annotate_mappings=annotate)
    model = ModelGraph(annotate)
    fired: list = []
    for _ in range(data.draw(st.integers(0, 14))):
        apply_edit(draw_edit(data, fired), graph, named, model)
        assert_same(graph, model)
        assert_same_names(graph, named)


@settings(max_examples=150, deadline=None)
@given(annotate=st.booleans(), data=st.data())
def test_edit_sequences_match_the_model_graph_at_checkpoints(annotate, data):
    """As above, but compared (and so flushed) only at drawn checkpoints and
    at the end: the state a run of unflushed edits leaves is checked too."""
    graph = ProvenanceGraph(annotate_mappings=annotate)
    named = ProvenanceGraph(annotate_mappings=annotate)
    model = ModelGraph(annotate)
    fired: list = []
    for _ in range(data.draw(st.integers(0, 20))):
        apply_edit(draw_edit(data, fired), graph, named, model)
        if data.draw(st.booleans()):
            assert_same(graph, model)
    assert_same(graph, model)
    assert_same_names(graph, named)


def test_a_hub_target_repeat_is_found_among_its_source_users():
    """A target with more records than a tuple entry holds (a list) looks a
    repeat up among its first source's users; both kinds of lookup, and a
    source that is a hub too, find it."""
    graph = ProvenanceGraph()
    width = 3 * _TUPLE_ADJACENCY
    firings = [((0,), (source,)) for source in range(width)]
    firings += [((1,), (0,)) for _ in range(width)]  # source 0 becomes a hub too
    graph.add_derivations("m", ("T", "R"), firings)
    assert graph.size() == (width + 2, width + 1)
    for repeat in (firings, [*reversed(firings)]):
        graph.add_derivations("m", ("T", "R"), repeat)
        assert graph.size() == (width + 2, width + 1)
    assert len(graph.derivations_of("T", (0,))) == width
    assert len(graph.derivations_from("R", (0,))) == 2
    graph.add_derivations("m", ("T", "R"), [((0,), (width,))])
    assert graph.size() == (width + 3, width + 2)


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
    210 B per derivation.  On CPython 3.11 the dict-of-nodes representation
    kept about 860 B, the dense-id one 360 B, with bare one-record
    adjacency entries and new tuples dirty by id range 221 B, and with the
    records in a list instead of a ``record → rule variable`` dict and
    default names rendered when read 186 B; the bound leaves about 13% for
    other interpreter versions.  The rows are the caller's."""
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
    assert retained / length <= 210


def test_retained_bytes_per_default_named_base_tuple():
    """60k base tuples without a given name keep at most 140 B each: their
    slots in the id-indexed lists and their interning entry, no name string
    (a name is rendered when read).  On CPython 3.11 a rendered name per
    tuple kept about 170 B and the shared marker 113 B.  The rows are the
    caller's."""
    length = 60_000
    rows = [(index,) for index in range(length)]
    gc.collect()
    tracemalloc.start()
    try:
        graph = ProvenanceGraph()
        for row in rows:
            graph.add_base_tuple("T", row)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.size() == (length, 0)
    assert graph.node("T", rows[-1]).variable == f"T({length - 1})"
    assert retained / length <= 140
