"""Unit tests for the update-exchange provenance graph."""

from repro.provenance.circuit import CircuitEvaluator
from repro.provenance.graph import ProvenanceGraph
from repro.provenance.polynomial import Polynomial
from repro.provenance.semiring import (
    BooleanSemiring,
    CountingSemiring,
    SecuritySemiring,
    TropicalSemiring,
    TrustLevel,
)

from rebuild import merge_graphs


def build_join_graph() -> ProvenanceGraph:
    """o * p * s derives ops."""
    graph = ProvenanceGraph()
    graph.add_base_tuple("O", ("ecoli", 1), "o")
    graph.add_base_tuple("P", ("lacZ", 10), "p")
    graph.add_base_tuple("S", (1, 10, "ATG"), "s")
    graph.add_derivation(
        "M_AC",
        ("OPS", ("ecoli", "lacZ", "ATG")),
        [("O", ("ecoli", 1)), ("P", ("lacZ", 10)), ("S", (1, 10, "ATG"))],
    )
    return graph


def build_union_graph() -> ProvenanceGraph:
    """Two alternative derivations of the same tuple."""
    graph = ProvenanceGraph()
    graph.add_base_tuple("R", (1,), "r")
    graph.add_base_tuple("Q", (1,), "q")
    graph.add_derivation("m1", ("T", (1,)), [("R", (1,))])
    graph.add_derivation("m2", ("T", (1,)), [("Q", (1,))])
    return graph


class TestConstruction:
    def test_base_tuple_registered_once(self):
        graph = ProvenanceGraph()
        first = graph.add_base_tuple("R", (1,), "r")
        second = graph.add_base_tuple("R", (1,))
        assert first == second
        assert graph.size() == (1, 0)

    def test_derived_then_promoted_to_base(self):
        graph = ProvenanceGraph()
        graph.add_derived_tuple("R", (1,))
        node = graph.add_base_tuple("R", (1,), "r")
        assert node.is_base
        assert node.variable == "r"

    def test_duplicate_derivation_deduplicated(self):
        graph = build_join_graph()
        before = graph.size()
        graph.add_derivation(
            "M_AC",
            ("OPS", ("ecoli", "lacZ", "ATG")),
            [("O", ("ecoli", 1)), ("P", ("lacZ", 10)), ("S", (1, 10, "ATG"))],
        )
        assert graph.size() == before

    def test_size(self):
        graph = build_join_graph()
        tuples, derivations = graph.size()
        assert tuples == 4
        assert derivations == 1

    def test_derivations_of_and_from(self):
        graph = build_join_graph()
        assert len(graph.derivations_of("OPS", ("ecoli", "lacZ", "ATG"))) == 1
        assert len(graph.derivations_from("O", ("ecoli", 1))) == 1

    def test_self_join_lists_the_derivation_once_per_source(self):
        graph = ProvenanceGraph()
        graph.add_base_tuple("E", ("a", "a"), "e")
        graph.add_derivation("r", ("T", ("a", "a")), [("E", ("a", "a")), ("E", ("a", "a"))])
        (derivation,) = graph.derivations_from("E", ("a", "a"))
        assert derivation.sources == (("E", ("a", "a")), ("E", ("a", "a")))
        squared = Polynomial.variable("e") * Polynomial.variable("e")
        assert graph.polynomial_for("T", ("a", "a")) == squared


class TestExpansion:
    def test_join_polynomial(self):
        graph = build_join_graph()
        polynomial = graph.polynomial_for("OPS", ("ecoli", "lacZ", "ATG"))
        expected = (
            Polynomial.variable("o") * Polynomial.variable("p") * Polynomial.variable("s")
        )
        assert polynomial == expected

    def test_union_polynomial(self):
        graph = build_union_graph()
        polynomial = graph.polynomial_for("T", (1,))
        assert polynomial == Polynomial.variable("r") + Polynomial.variable("q")

    def test_unknown_tuple_is_zero(self):
        graph = build_join_graph()
        assert graph.polynomial_for("OPS", ("missing",)).is_zero()

    def test_cycle_is_cut(self):
        graph = ProvenanceGraph()
        graph.add_base_tuple("A", (1,), "a")
        graph.add_derivation("m1", ("B", (1,)), [("A", (1,))])
        graph.add_derivation("m2", ("A", (1,)), [("B", (1,))])
        polynomial = graph.polynomial_for("B", (1,))
        assert polynomial == Polynomial.variable("a")

    def test_mapping_annotation_variables(self):
        graph = ProvenanceGraph(annotate_mappings=True)
        graph.add_base_tuple("R", (1,), "r")
        graph.add_derivation("m1", ("T", (1,)), [("R", (1,))])
        polynomial = graph.polynomial_for("T", (1,))
        assert polynomial.variables() == {"r", "m:m1"}


class TestEvaluation:
    def test_boolean_derivability(self):
        graph = build_union_graph()
        assert graph.is_derivable("T", (1,))
        assert graph.is_derivable("T", (1,), {"r"})
        assert graph.is_derivable("T", (1,), {"q"})
        assert not graph.is_derivable("T", (1,), set())

    def test_join_requires_all_inputs(self):
        graph = build_join_graph()
        assert graph.is_derivable("OPS", ("ecoli", "lacZ", "ATG"), {"o", "p", "s"})
        assert not graph.is_derivable("OPS", ("ecoli", "lacZ", "ATG"), {"o", "p"})

    def test_tropical_cheapest_path(self):
        graph = build_union_graph()
        annotations = graph.evaluate(TropicalSemiring(), {"r": 5.0, "q": 1.0})
        assert annotations[("T", (1,))] == 1.0

    def test_cyclic_boolean_fixpoint(self):
        graph = ProvenanceGraph()
        graph.add_base_tuple("A", (1,), "a")
        graph.add_derivation("m1", ("B", (1,)), [("A", (1,))])
        graph.add_derivation("m2", ("A", (1,)), [("B", (1,))])
        annotations = graph.evaluate(BooleanSemiring(), {"a": True})
        assert annotations[("A", (1,))] is True
        assert annotations[("B", (1,))] is True

    def test_cyclic_counting_counts_acyclic_derivations(self):
        # The pre-circuit fixpoint diverged (and raised) for non-idempotent
        # semirings over cyclic graphs; the DAG evaluation counts the finite
        # set of acyclic derivations, matching the expanded polynomial.
        graph = ProvenanceGraph()
        graph.add_base_tuple("A", (1,), "a")
        graph.add_derivation("m1", ("B", (1,)), [("A", (1,))])
        graph.add_derivation("m2", ("A", (1,)), [("B", (1,))])
        annotations = graph.evaluate(CountingSemiring(), {"a": 1})
        for key in (("A", (1,)), ("B", (1,))):
            expanded = graph.polynomial_for(*key).evaluate(CountingSemiring(), {"a": 1})
            assert annotations[key] == expanded
        # A has its base fact plus the derivation through B; B only the latter.
        assert annotations[("A", (1,))] == 2
        assert annotations[("B", (1,))] == 1

    def test_evaluate_graph(self):
        graph = ProvenanceGraph()
        graph.add_base_tuple("R", (1,), "r")
        graph.add_derivation("m", ("T", (1,)), [("R", (1,))])
        annotations = graph.evaluate(BooleanSemiring(), {"r": True})
        assert annotations[("T", (1,))] is True

    def test_security_clearances_through_graph(self):
        graph = ProvenanceGraph()
        graph.add_base_tuple("R", (1,), "r")
        graph.add_base_tuple("Q", (1,), "q")
        graph.add_derivation("m1", ("T", (1,)), [("R", (1,)), ("Q", (1,))])
        clearances = {"r": TrustLevel.PUBLIC, "q": TrustLevel.SECRET}
        annotations = graph.evaluate(SecuritySemiring(), clearances)
        # A joint derivation needs the *stricter* clearance.
        assert annotations[("T", (1,))] == TrustLevel.SECRET
        # The circuit evaluator answers the same for the tuple's root.
        evaluator = CircuitEvaluator(graph.circuit, SecuritySemiring(), clearances)
        assert evaluator.value(graph.root("T", (1,))) == TrustLevel.SECRET


class TestDeletion:
    def test_unsupported_after_base_removal(self):
        graph = build_join_graph()
        graph.remove_base_tuple("S", (1, 10, "ATG"))
        unsupported = dict.fromkeys(graph.unsupported_tuples())
        assert ("OPS", ("ecoli", "lacZ", "ATG")) in unsupported
        assert ("S", (1, 10, "ATG")) in unsupported

    def test_alternative_derivation_survives(self):
        graph = build_union_graph()
        graph.remove_base_tuple("R", (1,))
        assert ("T", (1,)) not in set(graph.unsupported_tuples())
        graph.remove_base_tuple("Q", (1,))
        assert ("T", (1,)) in set(graph.unsupported_tuples())

    def test_remove_unknown_base_returns_false(self):
        graph = build_join_graph()
        assert not graph.remove_base_tuple("O", ("missing", 0))
        assert not graph.remove_base_tuple("OPS", ("ecoli", "lacZ", "ATG"))


class TestMerge:
    def test_merge_graphs(self):
        merged = merge_graphs([build_join_graph(), build_union_graph()])
        tuples, derivations = merged.size()
        assert tuples == 4 + 3
        assert derivations == 1 + 2
        assert merged.is_derivable("T", (1,), {"r"})
