"""Batched derivation recording and the tuple-then-list adjacency entries.

The executors hand :meth:`ProvenanceGraph.add_derivations` all firings of
one rule application in one call; :meth:`ProvenanceGraph.add_derivation` is
its one-firing wrapper.  Recording a batch must build exactly the graph a
per-firing replay builds — records, their order, tuple ids, adjacency and
support.  Adjacency entries start as the shared ``()``, grow as tuples and
turn into a list once, so a hub tuple with many users builds in linear time.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provenance.graph import _TUPLE_ADJACENCY, ProvenanceGraph

RELATIONS = ("R", "S", "T")

_rows = st.tuples(st.integers(0, 3), st.integers(0, 1))


@st.composite
def _applications(draw):
    """One rule application: a mapping, its relations and a batch of firings
    (duplicates and repeated sources included)."""
    sources = draw(st.integers(1, 3))
    predicates = tuple(draw(st.sampled_from(RELATIONS)) for _ in range(sources + 1))
    firings = draw(
        st.lists(st.tuples(*(_rows for _ in predicates)), min_size=1, max_size=6)
    )
    return draw(st.sampled_from(("m1", "m2"))), predicates, firings


def _state(graph: ProvenanceGraph):
    return (
        [node.key for node in graph.tuples()],
        [node.is_base for node in graph.tuples()],
        list(graph.derivations()),
        [graph.derivations_of(*node.key) for node in graph.tuples()],
        [graph.derivations_from(*node.key) for node in graph.tuples()],
        graph.unsupported_tuples(),
    )


@settings(max_examples=80, deadline=None)
@given(
    applications=st.lists(_applications(), min_size=1, max_size=6),
    bases=st.lists(st.tuples(st.sampled_from(RELATIONS), _rows), max_size=4),
    annotate=st.booleans(),
)
def test_a_batch_records_what_a_per_firing_replay_records(applications, bases, annotate):
    batched = ProvenanceGraph(annotate_mappings=annotate)
    replayed = ProvenanceGraph(annotate_mappings=annotate)
    for graph in (batched, replayed):
        for relation, values in bases:
            graph.add_base_tuple(relation, values)
    for mapping_id, predicates, firings in applications:
        batched.add_derivations(mapping_id, predicates, firings)
        for head, *rows in firings:
            replayed.add_derivation(
                mapping_id, (predicates[0], head), list(zip(predicates[1:], rows))
            )
        assert _state(batched) == _state(replayed)


def test_an_empty_batch_changes_nothing():
    graph = ProvenanceGraph(annotate_mappings=True)
    graph.add_derivations("m", ("T", "R"), [])
    assert graph.size() == (0, 0)


def test_adjacency_grows_as_tuples_then_as_one_list():
    graph = ProvenanceGraph()
    graph.add_base_tuple("Hub", (0,))
    (hub,) = graph._ids["Hub"].values()
    assert graph._by_source[hub] == ()
    entries = []
    for user in range(3 * _TUPLE_ADJACENCY):
        graph.add_derivations("m", ("T", "Hub"), [((user,), (0,))])
        entries.append(graph._by_source[hub])
    assert all(type(entry) is tuple for entry in entries[:_TUPLE_ADJACENCY])
    assert all(type(entry) is list for entry in entries[_TUPLE_ADJACENCY:])
    # Past the switch the same list is appended to in place: no copy per record.
    assert all(entry is entries[-1] for entry in entries[_TUPLE_ADJACENCY:])
    assert len(entries[-1]) == 3 * _TUPLE_ADJACENCY


def test_a_hub_with_ten_thousand_users_builds_in_linear_time():
    """Each user is a new derivation from the hub: past the tuple phase the
    hub's entry is one list appended to in place, so recording costs one
    append per user (a tuple rebuilt per record would copy 50 million refs)."""
    graph = ProvenanceGraph()
    graph.add_base_tuple("Hub", ("h",), "h")
    (hub,) = graph._ids["Hub"].values()
    users = 10_000
    graph.add_derivations("m", ("T", "Hub"), [((user,), ("h",)) for user in range(users)])
    entry = graph._by_source[hub]
    assert type(entry) is list and len(entry) == users
    graph.add_derivation("m", ("T", (users,)), [("Hub", ("h",))])
    assert graph._by_source[hub] is entry and len(entry) == users + 1
    assert graph.is_derivable("T", (users - 1,))
    assert len(graph.derivations_from("Hub", ("h",))) == users + 1
