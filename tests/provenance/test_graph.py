"""Unit tests for the update-exchange provenance graph and its semiring
evaluator.

The evaluator is held to :func:`~repro.provenance.graph.reference_polynomial`,
which expands provenance by walking the derivation hyper-graph with no memo
and no component ids: on 8 generated networks under every semiring of
:mod:`repro.provenance.semiring`, and on random cyclic graphs drawn by
Hypothesis (a ``slow`` profile with more examples runs nightly).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import CDSS
from repro.datalog.evaluation import Database
from repro.datalog.provenance_eval import evaluate_with_provenance
from repro.errors import ProvenanceError
from repro.exchange.rules import published_relation
from repro.provenance.graph import ProvenanceGraph, reference_polynomial
from repro.provenance.polynomial import Polynomial
from repro.provenance.semiring import (
    BooleanSemiring,
    CountingSemiring,
    FuzzySemiring,
    LineageSemiring,
    PolynomialSemiring,
    SecuritySemiring,
    TropicalSemiring,
    TrustLevel,
    WhySemiring,
)
from repro.workloads.simulation import RandomWorkload, SimulationConfig, generate_network

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
        # A naive fixpoint diverges for non-idempotent semirings over cyclic
        # graphs; the evaluator counts the finite set of acyclic
        # derivations, matching the expanded polynomial.
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
        # One tuple's annotation answers the same as the whole-graph pass.
        assert graph.annotation("T", (1,), SecuritySemiring(), clearances) == TrustLevel.SECRET


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


def build_diamond() -> ProvenanceGraph:
    """a and b jointly derive m; m derives t; b also derives t directly."""
    graph = ProvenanceGraph()
    graph.add_base_tuple("A", (1,), "a")
    graph.add_base_tuple("B", (1,), "b")
    graph.add_derivation("m1", ("M", (1,)), [("A", (1,)), ("B", (1,))])
    graph.add_derivation("m2", ("T", (1,)), [("M", (1,))])
    graph.add_derivation("m3", ("T", (1,)), [("B", (1,))])
    return graph


class TestEvaluator:
    def test_diamond_annotation_matches_polynomial(self):
        graph = build_diamond()
        polynomial = graph.polynomial_for("T", (1,))
        assignment = {"a": 2, "b": 3}
        assert graph.annotation(
            "T", (1,), CountingSemiring(), assignment
        ) == polynomial.evaluate(CountingSemiring(), assignment)

    def test_alternatives_and_repeats_keep_their_multiplicity(self):
        # x + x is 2x and x * x is x^2: nothing idempotent is assumed.
        graph = ProvenanceGraph()
        graph.add_base_tuple("X", (1,), "x")
        graph.add_derivation("m1", ("T", (1,)), [("X", (1,))])
        graph.add_derivation("m2", ("T", (1,)), [("X", (1,))])
        graph.add_derivation("sq", ("Q", (1,)), [("X", (1,)), ("X", (1,))])
        x = Polynomial.variable("x")
        assert graph.polynomial_for("T", (1,)) == x + x
        assert graph.polynomial_for("Q", (1,)) == x * x
        assert graph.annotation("T", (1,), CountingSemiring(), {"x": 3}) == 6
        assert graph.annotation("Q", (1,), CountingSemiring(), {"x": 3}) == 9

    def test_a_derivation_through_an_underivable_source_contributes_nothing(self):
        # Identity laws: an absent source zeroes its derivation (0 * x = 0),
        # which drops out of the sum (0 + x = x), even where a semiring's
        # zero is not a value the assignment can produce.
        graph = ProvenanceGraph()
        graph.add_base_tuple("A", (1,), "a")
        graph.add_derivation("dead", ("T", (1,)), [("A", (1,)), ("Missing", (1,))])
        graph.add_derivation("live", ("T", (1,)), [("A", (1,))])
        assert graph.polynomial_for("T", (1,)) == Polynomial.variable("a")
        assert graph.annotation("T", (1,), LineageSemiring(), {"a": frozenset({"a"})}) == {"a"}
        assert graph.annotation("Missing", (1,), LineageSemiring()) is None
        assert graph.annotation("Unknown", (1,), CountingSemiring()) == 0

    def test_insertion_then_evaluation_matches_a_rebuild(self):
        graph = build_diamond()
        before = graph.polynomial_for("T", (1,))
        graph.add_base_tuple("C", (1,), "c")
        graph.add_derivation("m4", ("T", (1,)), [("C", (1,))])
        assert graph.polynomial_for("T", (1,)) == before + Polynomial.variable("c")
        ones = {variable: 1 for variable in graph.base_variables()}
        fresh = merge_graphs([graph])
        assert graph.evaluate(CountingSemiring(), ones) == fresh.evaluate(CountingSemiring(), ones)

    def test_deletion_then_evaluation_matches_a_rebuild(self):
        graph = build_diamond()
        assert graph.unsupported_tuples() == []
        graph.remove_base_tuple("A", (1,))
        unsupported = set(graph.unsupported_tuples())
        # M lost its only support; T survives through b.
        assert ("M", (1,)) in unsupported
        assert ("A", (1,)) in unsupported
        assert ("T", (1,)) not in unsupported
        fresh = merge_graphs([graph])
        assert set(fresh.unsupported_tuples()) == unsupported
        assert graph.polynomial_for("T", (1,)) == fresh.polynomial_for("T", (1,))
        assert graph.polynomial_for("T", (1,)) == Polynomial.variable("b")

    def test_deep_derivation_chain_evaluates_iteratively(self):
        # 5000 copy-mapping hops: the explicit-frame evaluator must not hit
        # Python's recursion limit on the deepest tuple.
        graph = ProvenanceGraph()
        graph.add_base_tuple("R", (0,), "x0")
        depth = 5000
        for i in range(1, depth + 1):
            graph.add_derivation(f"m{i}", ("R", (i,)), [("R", (i - 1,))])
        assert graph.is_derivable("R", (depth,))
        assert graph.polynomial_for("R", (depth,)) == Polynomial.variable("x0")
        assert not graph.is_derivable("R", (depth,), set())
        assert graph.annotation("R", (depth,), CountingSemiring()) == 1
        # The bounded reference walker refuses (cleanly) instead of crashing.
        with pytest.raises(ProvenanceError):
            reference_polynomial(graph, "R", (depth,))
        # Deleting the root kills the whole chain incrementally.
        graph.remove_base_tuple("R", (0,))
        assert ("R", (depth,)) in set(graph.unsupported_tuples())
        assert not graph.is_derivable("R", (depth,))

    def test_unhashable_semiring(self):
        class UnhashableBoolean(BooleanSemiring):
            __hash__ = None  # e.g. a dataclass with eq=True

        graph = build_diamond()
        annotations = graph.evaluate(UnhashableBoolean(), {"a": True, "b": True})
        assert annotations[("T", (1,))] is True
        # T's support is a*b + b, so it stands or falls with b.
        assert graph.annotation("T", (1,), UnhashableBoolean(), {"a": False, "b": True})
        assert not graph.annotation("T", (1,), UnhashableBoolean(), {"a": True, "b": False})

    def test_caller_mutation_of_the_assignment_is_seen_by_the_next_call(self):
        graph = build_diamond()
        assignment = {"a": 2, "b": 3}
        first = graph.annotation("T", (1,), CountingSemiring(), assignment)
        assert first == 2 * 3 + 3
        assignment["b"] = 999  # no evaluation outlives its call
        assert graph.annotation("T", (1,), CountingSemiring(), assignment) == 2 * 999 + 999
        assert graph.annotation("T", (1,), CountingSemiring(), {"a": 2, "b": 3}) == first

    def test_join_of_two_350_way_unions(self):
        # A join of two 350-way unions: the polynomial has 350^2 = 122,500
        # monomials while the graph stays linear in the alternatives; the
        # default budget must raise rather than materialise it.
        graph = ProvenanceGraph()
        width = 350
        for side in ("L", "R"):
            for i in range(width):
                graph.add_base_tuple(side, (i,), f"{side.lower()}{i}")
                graph.add_derivation(f"m{side}{i}", (f"U{side}", (0,)), [(side, (i,))])
        graph.add_derivation("join", ("T", (0,)), [("UL", (0,)), ("UR", (0,))])
        with pytest.raises(ProvenanceError):
            graph.polynomial_for("T", (0,))
        # An explicit budget still lifts the bound...
        assert graph.polynomial_for(
            "T", (0,), max_monomials=None
        ).monomial_count() == width * width
        # ...and the graph answers in the counting semiring regardless.
        assignment = {v: 1 for v in graph.base_variables()}
        assert graph.annotation("T", (0,), CountingSemiring(), assignment) == width * width

    def test_polynomial_budget_raises_before_building_the_product(self, monkeypatch):
        graph = ProvenanceGraph()
        for side in ("A", "B"):
            for i in range(300):
                graph.add_base_tuple(side, (i,), f"{side.lower()}{i}")
                graph.add_derivation(f"u{side}", (f"U{side}", (0,)), [(side, (i,))])
        graph.add_derivation("join", ("T", (0,)), [("UA", (0,)), ("UB", (0,))])
        multiplied = []
        times = Polynomial.__mul__

        def counted(left, right):
            multiplied.append(left.monomial_count() * right.monomial_count())
            return times(left, right)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        # 300 * 300 = 90,000 would exceed the budget of 1,000: the check
        # raises without building the product.
        with pytest.raises(ProvenanceError, match="budget of 1000"):
            graph.polynomial_for("T", (0,), max_monomials=1_000)
        assert all(size <= 1_000 for size in multiplied)
        # The bound covers single-variable answers too.
        with pytest.raises(ProvenanceError):
            graph.polynomial_for("A", (0,), max_monomials=0)

    def test_mapping_variables_count_as_trusted_only_in_trust_questions(self):
        graph = ProvenanceGraph(annotate_mappings=True)
        graph.add_base_tuple("R", (1,), "r")
        graph.add_derivation("m1", ("T", (1,)), [("R", (1,))])
        # A trust question: mapping variables count as trusted.
        assert graph.is_derivable("T", (1,), {"r"})
        assert not graph.is_derivable("T", (1,), set())
        # An annotation assigns them like any variable.
        strict = graph.annotation("T", (1,), BooleanSemiring(), {"r": True}, default=False)
        assert strict is False
        assert graph.annotation("T", (1,), BooleanSemiring(), {"r": True, "m:m1": True})

    def test_trusted_variables_may_be_any_container(self):
        class Prefixed:
            def __init__(self, prefix):
                self.prefix = prefix

            def __contains__(self, name):
                return name.startswith(self.prefix)

        graph = build_union_graph()
        assert graph.is_derivable("T", (1,), Prefixed("r"))
        assert graph.is_derivable("T", (1,), ["q"])
        assert not graph.is_derivable("T", (1,), Prefixed("x"))
        assert not graph.is_derivable("T", (2,), Prefixed(""))

    def test_derivability_without_a_trusted_set_reads_the_unsupported_set(self, monkeypatch):
        graph = build_union_graph()
        graph.remove_base_tuple("R", (1,))
        evaluations = []
        monkeypatch.setattr(
            ProvenanceGraph, "_evaluator", lambda *arguments: evaluations.append(arguments)
        )
        assert graph.is_derivable("T", (1,))
        assert not graph.is_derivable("R", (1,))
        assert not graph.is_derivable("T", (2,))
        assert evaluations == []

    def test_annotation_reports_to_observability(self):
        from repro.obs import Observability

        graph = build_diamond()
        obs = Observability()
        graph.observability = obs
        assert graph.annotation("T", (1,), CountingSemiring(), {"a": 2, "b": 3}) == 9
        assert obs.metrics.counter_value("provenance.evaluations") == 1


# ---------------------------------------------------------------------------
# Every semiring against the reference expansion
# ---------------------------------------------------------------------------

#: One assignment per semiring of ``repro.provenance.semiring``: the
#: ``index``-th variable (in sorted order) named ``variable`` takes the value.
SEMIRINGS = {
    "boolean": (BooleanSemiring(), lambda index, variable: index % 2 == 0),
    "counting": (CountingSemiring(), lambda index, variable: 1 + index % 3),
    "tropical": (TropicalSemiring(), lambda index, variable: float(1 + index % 4)),
    "fuzzy": (FuzzySemiring(), lambda index, variable: (0.25, 0.5, 1.0)[index % 3]),
    "security": (
        SecuritySemiring(),
        lambda index, variable: (TrustLevel.PUBLIC, TrustLevel.CONFIDENTIAL, TrustLevel.SECRET)[
            index % 3
        ],
    ),
    "lineage": (LineageSemiring(), lambda index, variable: frozenset({variable})),
    "why": (WhySemiring(), lambda index, variable: frozenset({frozenset({variable})})),
    "polynomial": (PolynomialSemiring(), lambda index, variable: Polynomial.variable(variable)),
}


def _assignment(name: str, variables) -> dict:
    value = SEMIRINGS[name][1]
    return {variable: value(index, variable) for index, variable in enumerate(sorted(variables))}


def _expanded(polynomial: Polynomial, semiring, assignment: dict):
    completed = {v: assignment.get(v, semiring.one()) for v in polynomial.variables()}
    return polynomial.evaluate(semiring, completed)


def test_every_semiring_is_covered():
    import repro.provenance.semiring as module

    defined = {
        value
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, module._BaseSemiring)
    }
    covered = {type(semiring) for semiring, _ in SEMIRINGS.values()}
    assert defined - {module._BaseSemiring} == covered


NETWORK_SEEDS = range(1, 9)
SWEEP_CONFIG = SimulationConfig(epochs=2, max_peers=4, transactions_per_epoch=(2, 4))
#: Expansion budget: tuples beyond it are what evaluating on the graph is for.
SWEEP_BUDGET = 4096


def _provenance_for_seed(seed: int):
    """A generated network's provenance result over insert-only base facts."""
    rng = random.Random(seed)
    spec = generate_network(rng, SWEEP_CONFIG)
    workload = RandomWorkload(spec, SWEEP_CONFIG, rng)
    program = CDSS.from_spec(spec).engine.program
    base = Database()
    for _ in range(SWEEP_CONFIG.epochs):
        for command in workload.epoch_commands():
            if command.kind in ("insert", "conflict"):
                base.add(published_relation(command.peer, command.relation), command.values)
    return evaluate_with_provenance(program, base)


@pytest.mark.parametrize("seed", NETWORK_SEEDS)
def test_dag_equals_expanded_on_generated_network(seed):
    graph = _provenance_for_seed(seed).graph
    derived = [node.key for node in graph.tuples() if not node.is_base]
    assert derived, f"seed {seed} derived nothing"
    variables = graph.base_variables()
    cases = [
        (name, semiring, _assignment(name, variables))
        for name, (semiring, _) in SEMIRINGS.items()
    ]
    whole = {name: graph.evaluate(semiring, assignment) for name, semiring, assignment in cases}
    checked = 0
    for key in derived:
        try:
            polynomial = reference_polynomial(graph, *key, max_monomials=SWEEP_BUDGET)
        except ProvenanceError:
            continue
        assert graph.polynomial_for(*key) == polynomial
        for name, semiring, assignment in cases:
            expanded = _expanded(polynomial, semiring, assignment)
            one = graph.annotation(*key, semiring, assignment)
            assert one == expanded == whole[name][key], (
                f"seed {seed}: {key!r} under {name}: "
                f"annotation={one!r} evaluate={whole[name][key]!r} expanded={expanded!r}"
            )
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("seed", NETWORK_SEEDS)
def test_deletion_then_evaluation_matches_fresh_graph(seed):
    graph = _provenance_for_seed(seed).graph
    assert isinstance(graph.unsupported_tuples(), list)
    base_keys = sorted((node.key for node in graph.tuples() if node.is_base), key=repr)
    for relation, values in base_keys[::3]:
        graph.remove_base_tuple(relation, values)
    fresh = merge_graphs([graph])
    assert set(graph.unsupported_tuples()) == set(fresh.unsupported_tuples())
    assignment = {v: 1 for v in graph.base_variables()}
    assert graph.evaluate(CountingSemiring(), assignment) == fresh.evaluate(
        CountingSemiring(), assignment
    )


#: A small pool, so graphs are dense in cycles, self-joins and placeholders
#: while their acyclic derivations stay few enough to expand.
POOL = st.tuples(st.sampled_from("AB"), st.tuples(st.integers(0, 2)))
DERIVE = st.tuples(
    st.just("derive"), st.sampled_from(["m1", "m2"]), POOL, st.lists(POOL, min_size=1, max_size=3)
)
#: Mostly derivations, so most drawn graphs close a cycle or two.
GRAPH_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("base"), POOL), st.tuples(st.just("demote"), POOL), DERIVE, DERIVE, DERIVE
    ),
    max_size=16,
)
#: Per-expansion budget: a drawn tuple beyond it is skipped.
DIFFERENTIAL_BUDGET = 2000


def check_against_reference(name: str, annotate_mappings: bool, edits) -> None:
    """Every tuple's annotation, whole-graph evaluation and polynomial, and
    its trusted derivability, equal what ``reference_polynomial`` gives."""
    semiring = SEMIRINGS[name][0]
    graph = ProvenanceGraph(annotate_mappings=annotate_mappings)
    for kind, *arguments in edits:
        if kind == "base":
            graph.add_base_tuple(*arguments[0])
        elif kind == "demote":
            graph.remove_base_tuple(*arguments[0])
        else:
            graph.add_derivation(*arguments)
    variables = set(graph.base_variables())
    variables |= {f"m:{mapping}" for mapping in ("m1", "m2")} if annotate_mappings else set()
    assignment = _assignment(name, variables)
    trusted = set(sorted(graph.base_variables())[::2])
    whole = graph.evaluate(semiring, assignment)
    for node in graph.tuples():
        try:
            polynomial = reference_polynomial(graph, *node.key, max_monomials=DIFFERENTIAL_BUDGET)
        except ProvenanceError:
            continue
        expanded = _expanded(polynomial, semiring, assignment)
        assert graph.annotation(*node.key, semiring, assignment) == expanded, node.key
        assert whole[node.key] == expanded, node.key
        assert graph.polynomial_for(*node.key, max_monomials=None) == polynomial, node.key
        trust = {v: v in trusted or v.startswith("m:") for v in polynomial.variables()}
        assert graph.is_derivable(*node.key, trusted) == polynomial.evaluate(
            BooleanSemiring(), trust
        ), node.key


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@settings(max_examples=50, deadline=None)
@given(annotate_mappings=st.booleans(), edits=GRAPH_EDITS)
def test_evaluator_matches_reference_on_random_cyclic_graphs(name, annotate_mappings, edits):
    check_against_reference(name, annotate_mappings, edits)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@settings(max_examples=1000, deadline=None)
@given(annotate_mappings=st.booleans(), edits=GRAPH_EDITS)
def test_evaluator_matches_reference_on_random_cyclic_graphs_slow(name, annotate_mappings, edits):
    check_against_reference(name, annotate_mappings, edits)
