"""Differential test: the maintained unsupported set vs full re-evaluation.

``ProvenanceGraph`` keeps the set of unsupported tuples up to date by
re-deriving support only in the downstream cone of what changed.  The two
reference answers here do neither: ``scan_unsupported`` evaluates every
tuple of the graph afresh in the Boolean semiring (the full scan the graph
used to run on every delete), and ``merge_graphs`` (``rebuild.py``)
replays the graph's current state into a new graph.  All
three must agree after any interleaving of insertions, deletions,
re-insertions and promotions, whenever the graph happens to be flushed.
On graphs sparse enough to expand, ``reference_polynomial`` is a fourth
answer that shares nothing with the evaluator: a tuple is supported exactly
when its expanded polynomial is not zero.  The graph reads support off its
adjacency with no semiring evaluation; ``EvaluatorSupportGraph``
(``evaluator_support.py``) rechecks each tuple with the evaluator's Boolean
value instead, and must report the same tuples in the same order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import Fact
from repro.datalog.incremental import IncrementalEngine
from repro.datalog.parser import parse_program
from repro.provenance.graph import ProvenanceGraph, reference_polynomial
from repro.provenance.semiring import BooleanSemiring, CountingSemiring
from repro.workloads.bioinformatics import build_figure2_network

from evaluator_support import EvaluatorSupportGraph
from rebuild import merge_graphs


def scan_unsupported(graph: ProvenanceGraph) -> set:
    """Reference oracle: evaluate every tuple of the graph in the Boolean
    semiring (not ``is_derivable``, which reads the set under test)."""
    return {
        node.key
        for node in list(graph.tuples())
        if not graph.annotation(*node.key, BooleanSemiring())
    }


def assert_matches_references(graph: ProvenanceGraph, context, expand: bool = False) -> None:
    maintained = graph.unsupported_tuples()
    assert len(maintained) == len(set(maintained)), context
    assert set(maintained) == scan_unsupported(graph), context
    fresh = merge_graphs([graph])
    assert set(maintained) == set(fresh.unsupported_tuples()), context
    # A value reused across a cycle would change the number of acyclic
    # derivations (counted by the evaluator, so dense graphs stay cheap).
    ones = {variable: 1 for variable in graph.base_variables()}
    assert graph.evaluate(CountingSemiring(), ones) == fresh.evaluate(
        CountingSemiring(), ones
    ), context
    if expand:
        assert set(maintained) == {
            node.key
            for node in graph.tuples()
            if reference_polynomial(graph, *node.key).is_zero()
        }, context


#: (tuple pool size, edits, also check against expanded polynomials).
#: Expansion materialises every acyclic derivation, so it gets a sparser graph.
SHAPES = {"dense": (7, 100, False), "expanded": (12, 40, True)}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", range(20))
def test_random_graph_edits_match_full_reevaluation(seed, shape):
    pool, edits, expand = SHAPES[shape]
    rng = random.Random(seed)

    def random_key(rng: random.Random) -> tuple:
        return (rng.choice("ABC"), (rng.randrange(pool),))

    graph = ProvenanceGraph()
    base: list[tuple] = []
    for step in range(edits):
        choice = rng.random()
        if choice < 0.25:
            # New base tuple, re-insertion of a demoted one, or promotion of
            # a tuple so far only derived (or only a placeholder).
            key = random_key(rng)
            graph.add_base_tuple(*key)
            if key not in base:
                base.append(key)
        elif choice < 0.65:
            # Sources are drawn from the same small pool as targets, so
            # cycles (A -> B -> A) and never-registered placeholder sources
            # both turn up.
            target = random_key(rng)
            sources = [random_key(rng) for _ in range(rng.randint(1, 2))]
            graph.add_derivation(f"m{rng.randrange(4)}", target, sources)
        elif choice < 0.7:
            graph.add_derived_tuple(*random_key(rng))
        elif base:
            key = base.pop(rng.randrange(len(base)))
            mark = graph.support_mark()
            before = set(graph.unsupported_tuples())
            assert graph.remove_base_tuple(*key)
            newly = graph.unsupported_tuples(since=mark)
            assert set(newly) == set(graph.unsupported_tuples()) - before, (seed, step)
        # Flush at irregular moments: several edits usually share one flush.
        if rng.random() < 0.3:
            assert_matches_references(graph, (seed, step), expand)
    assert_matches_references(graph, (seed, "end"), expand)


def test_placeholder_sources_are_unsupported_until_asserted():
    graph = ProvenanceGraph()
    graph.add_derivation("m", ("T", (1,)), [("S", (1,))])
    assert set(graph.unsupported_tuples()) == {("S", (1,)), ("T", (1,))}
    graph.add_base_tuple("S", (1,), "s")
    assert graph.unsupported_tuples() == []
    graph.remove_base_tuple("S", (1,))
    assert set(graph.unsupported_tuples()) == {("S", (1,)), ("T", (1,))}


def test_a_cycle_does_not_support_itself():
    graph = ProvenanceGraph()
    graph.add_base_tuple("A", (1,), "a")
    graph.add_derivation("ab", ("B", (1,)), [("A", (1,))])
    graph.add_derivation("ba", ("A", (1,)), [("B", (1,))])
    assert graph.unsupported_tuples() == []
    # A new derivation that closes a second cycle through checked tuples.
    graph.add_derivation("bc", ("C", (1,)), [("B", (1,))])
    graph.add_derivation("cb", ("B", (1,)), [("C", (1,))])
    assert graph.unsupported_tuples() == []
    graph.remove_base_tuple("A", (1,))
    assert set(graph.unsupported_tuples()) == {("A", (1,)), ("B", (1,)), ("C", (1,))}
    assert_matches_references(graph, "cycle")


def test_a_tuple_revived_and_killed_between_two_deletes_is_removed_again():
    """Insertions do not flush the graph.  A dead tuple that an insertion
    revives and the next deletion kills again must be reported a second
    time, or it would stay in the database."""
    program = parse_program("Path(x, y) :- Edge(x, y).\nPath(x, z) :- Path(x, y), Edge(y, z).")
    engine = IncrementalEngine(program)
    engine.apply_insertions([Fact("Edge", (1, 2)), Fact("Edge", (2, 3))])
    assert engine.apply_deletions([Fact("Edge", (2, 3))]).deleted["Path"] == {(2, 3), (1, 3)}
    engine.apply_insertions([Fact("Edge", (2, 3))])
    assert (1, 3) in engine.database.relation("Path")
    assert engine.apply_deletions([Fact("Edge", (2, 3))]).deleted["Path"] == {(2, 3), (1, 3)}
    assert engine.database.relation("Path") == {(1, 2)}
    assert engine.database.relation("Path") == engine.reference_database().relation("Path")


def drive_figure2_stream(cdss, steps: int, check=None) -> dict[str, list]:
    """Inserts, modifies, deletes and re-inserts of S tuples at Alaska and
    Beijing, each published and reconciled everywhere; ``check(step)`` runs
    every fourth step.  Returns the S tuples left deleted, per peer."""
    rng = random.Random(7)
    live = {"Alaska": [], "Beijing": []}
    removed = {"Alaska": [], "Beijing": []}
    for step in range(steps):
        name = ("Alaska", "Beijing")[step % 2]
        peer = cdss.peer(name)
        held = live[name]
        choice = rng.random()
        if choice < 0.5 or not held:
            oid, pid = 100 * (step % 2) + step, 1000 + step
            builder = peer.new_transaction()
            builder.insert("O", (f"org{oid}", oid))
            builder.insert("P", (f"prot{pid}", pid))
            builder.insert("S", (oid, pid, f"seq{step}"))
            peer.commit(builder)
            held.append((oid, pid, f"seq{step}"))
        elif choice < 0.65:
            old = held.pop(rng.randrange(len(held)))
            held.append((old[0], old[1], f"seq{step}"))
            peer.modify("S", old, held[-1])
        elif choice < 0.85 or not removed[name]:
            removed[name].append(held.pop(rng.randrange(len(held))))
            peer.delete("S", removed[name][-1])
        else:
            held.append(removed[name].pop())
            peer.insert("S", held[-1])
        cdss.publish(name)
        for reconciling in ("Alaska", "Beijing", "Crete", "Dresden"):
            cdss.reconcile(reconciling)
        if check is not None and step % 4 == 3:
            check(step)
    return removed


def test_figure2_cycle_stream_matches_references():
    """Σ1 → Σ2 → Σ1: every S tuple derives an OPS tuple that derives it back."""
    cdss = build_figure2_network().cdss

    def check(step):
        assert_matches_references(cdss.engine.provenance, step)
        assert cdss.engine.database == cdss.engine.reference_database()

    removed = drive_figure2_stream(cdss, 40, check)
    assert removed["Alaska"] or removed["Beijing"]
    assert cdss.engine.provenance.unsupported_tuples()


def test_the_exchange_path_compiles_no_circuit(monkeypatch):
    """Deletion propagation reads support off the adjacency; the semiring
    evaluator runs only when a question needs one, and then answers as a
    rebuild's does."""
    evaluated = []
    evaluator = ProvenanceGraph._evaluator

    def counted(graph, *arguments):
        evaluated.append(arguments[0])
        return evaluator(graph, *arguments)

    monkeypatch.setattr(ProvenanceGraph, "_evaluator", counted)
    cdss = build_figure2_network().cdss
    removed = drive_figure2_stream(cdss, 40)
    graph = cdss.engine.provenance
    dead = graph.unsupported_tuples()
    assert dead and (removed["Alaska"] or removed["Beijing"])
    assert evaluated == []

    fresh = merge_graphs([graph])
    survivor = next(
        node.key for node in graph.tuples() if not node.is_base and node.key not in dead
    )
    assert not graph.polynomial_for(*survivor).is_zero()
    assert evaluated
    assert graph.polynomial_for(*survivor) == fresh.polynomial_for(*survivor)
    assert graph.is_derivable(*survivor) and fresh.is_derivable(*survivor)
    assert not graph.is_derivable(*dead[0]) and not fresh.is_derivable(*dead[0])


def test_a_cycle_dies_with_its_one_external_entry():
    graph, reference = ProvenanceGraph(), EvaluatorSupportGraph()
    for edited in (graph, reference):
        edited.add_base_tuple("E", (0,))
        edited.add_derivation("in", ("A", (0,)), [("E", (0,))])
        edited.add_derivation("ab", ("B", (0,)), [("A", (0,))])
        edited.add_derivation("ba", ("A", (0,)), [("B", (0,))])
        # A self-join over the cycle: one record, indexed once under B.
        edited.add_derivation("bb", ("C", (0,)), [("B", (0,)), ("B", (0,))])
    assert graph.unsupported_tuples() == reference.unsupported_tuples() == []
    marks = (graph.support_mark(), reference.support_mark())
    for edited in (graph, reference):
        edited.remove_base_tuple("E", (0,))
    expected = [("E", (0,)), ("A", (0,)), ("B", (0,)), ("C", (0,))]
    assert set(graph.unsupported_tuples()) == set(expected)
    assert graph.unsupported_tuples() == reference.unsupported_tuples()
    assert graph.unsupported_tuples(since=marks[0]) == reference.unsupported_tuples(
        since=marks[1]
    )
    # Support returning to one member of the cycle revives all of it.
    for edited in (graph, reference):
        edited.add_base_tuple("B", (0,))
    assert graph.unsupported_tuples() == reference.unsupported_tuples() == [("E", (0,))]


def test_a_self_join_waits_once_for_its_repeated_source():
    """``T1 :- S, O, S`` and ``T2 :- O, S, O``, all re-derived in one flush:
    whichever of S and O is released first, one join counts the other's
    repeat while it still waits, and must count it once."""
    graph, reference = ProvenanceGraph(), EvaluatorSupportGraph()
    for edited in (graph, reference):
        edited.add_base_tuple("E", (0,))
        edited.add_derivation("o", ("O", (0,)), [("E", (0,))])
        edited.add_derivation("x", ("X", (0,)), [("E", (0,))])
        edited.add_derivation("s", ("S", (0,)), [("X", (0,))])
        edited.add_derivation("j", ("T", (1,)), [("S", (0,)), ("O", (0,)), ("S", (0,))])
        edited.add_derivation("j", ("T", (2,)), [("O", (0,)), ("S", (0,)), ("O", (0,))])
    assert graph.unsupported_tuples() == reference.unsupported_tuples() == []
    for edited in (graph, reference):
        edited.remove_base_tuple("E", (0,))
    assert len(graph.unsupported_tuples()) == 6
    assert graph.unsupported_tuples() == reference.unsupported_tuples()
    for edited in (graph, reference):
        edited.add_base_tuple("E", (0,))
    assert graph.unsupported_tuples() == reference.unsupported_tuples() == []


KEYS = st.tuples(st.sampled_from("AB"), st.tuples(st.integers(0, 3)))
#: ``(kind, *arguments)``: each kind is applied to both graphs by ``edit``.
SUPPORT_EDITS = st.one_of(
    st.tuples(st.just("base"), KEYS),
    st.tuples(st.just("demote"), KEYS),
    st.tuples(
        st.just("derive"), st.sampled_from(["m1", "m2"]), KEYS, st.lists(KEYS, min_size=1, max_size=3)
    ),
    # A self-join that repeats one source around another.
    st.tuples(st.just("self_join"), KEYS, KEYS, KEYS),
    # A cycle through two or three tuples, with or without one external entry.
    st.tuples(
        st.just("cycle"), st.lists(KEYS, min_size=2, max_size=3, unique=True), st.none() | KEYS
    ),
    # A tuple created by a derivation and used by another, then promoted and
    # perhaps demoted again, all before the next flush.
    st.tuples(st.just("fresh"), KEYS, KEYS, st.booleans()),
    st.tuples(st.just("flush")),
    st.tuples(st.just("mark")),
)


def edit(graph: ProvenanceGraph, step: int, kind: str, *arguments) -> None:
    if kind == "base":
        graph.add_base_tuple(*arguments[0])
    elif kind == "demote":
        graph.remove_base_tuple(*arguments[0])
    elif kind == "derive":
        graph.add_derivation(*arguments)
    elif kind == "self_join":
        target, repeated, other = arguments
        graph.add_derivation("j", target, [repeated, other, repeated])
    elif kind == "cycle":
        members, entry = arguments
        for index, member in enumerate(members):
            graph.add_derivation("c", members[index - 1], [member])
        if entry is not None:
            graph.add_derivation("e", members[0], [entry])
    elif kind == "fresh":
        source, user, demote = arguments
        fresh = ("N", (step,))
        graph.add_derivation("f", fresh, [source])
        graph.add_derivation("g", user, [fresh])
        graph.add_base_tuple(*fresh)
        if demote:
            graph.remove_base_tuple(*fresh)


def assert_same_support(graph, reference, marks) -> None:
    assert graph.unsupported_tuples() == reference.unsupported_tuples()
    if marks is not None:
        assert graph.unsupported_tuples(since=marks[0]) == reference.unsupported_tuples(
            since=marks[1]
        )


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(SUPPORT_EDITS, max_size=25))
def test_edit_sequences_match_the_evaluator_recheck(edits):
    """The support fixpoint against the evaluator's Boolean recheck: the same
    unsupported tuples in the same order, and the same answers since a mark,
    whenever the graphs are flushed."""
    graph, reference = ProvenanceGraph(), EvaluatorSupportGraph()
    marks = None
    for step, (kind, *arguments) in enumerate(edits):
        if kind == "flush":
            assert_same_support(graph, reference, marks)
        elif kind == "mark":
            marks = (graph.support_mark(), reference.support_mark())
            assert marks[0] == marks[1]
        else:
            edit(graph, step, kind, *arguments)
            edit(reference, step, kind, *arguments)
    assert_same_support(graph, reference, marks)
