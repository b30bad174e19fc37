"""Tests for the hash-consed provenance circuit store and DAG evaluation.

Covers the store itself (interning, canonicalisation, identity laws, lazy
expansion with budget), the graph's circuit compilation (root caching,
incremental invalidation on insert/delete), and the DAG-vs-expanded property
sweep over 8 generated networks required by the provenance refactor:
every derived tuple's DAG evaluation must equal its expanded-polynomial
evaluation under boolean, trust (security), tropical, and counting
semirings, and deletion memo-invalidation must match from-scratch DAG
re-evaluation.
"""

import random

import pytest

from repro.core.system import CDSS
from repro.datalog.evaluation import Database
from repro.datalog.provenance_eval import evaluate_with_provenance
from repro.errors import ProvenanceError
from repro.exchange.rules import published_relation
from repro.provenance.circuit import ONE, ZERO, CircuitEvaluator, CircuitStore
from repro.provenance.graph import ProvenanceGraph, reference_polynomial
from repro.provenance.polynomial import Polynomial
from repro.provenance.semiring import (
    BooleanSemiring,
    CountingSemiring,
    SecuritySemiring,
    TropicalSemiring,
    TrustLevel,
)
from repro.workloads.simulation import RandomWorkload, SimulationConfig, generate_network

from rebuild import merge_graphs


class TestCircuitStore:
    def test_interning_is_structural(self):
        store = CircuitStore()
        x, y = store.var("x"), store.var("y")
        assert store.var("x") == x
        left = store.sum_of([store.product_of([x, y]), x])
        right = store.sum_of([x, store.product_of([y, x])])
        assert left == right  # commutativity canonicalised away

    def test_identity_laws(self):
        store = CircuitStore()
        x = store.var("x")
        assert store.sum_of([]) == ZERO
        assert store.product_of([]) == ONE
        assert store.sum_of([ZERO, x]) == x
        assert store.product_of([ONE, x]) == x
        assert store.product_of([ZERO, x]) == ZERO

    def test_flattening_preserves_multiplicity(self):
        store = CircuitStore()
        x = store.var("x")
        two_x = store.sum_of([x, x])
        # x + x is 2x, not x: duplicates must survive canonical sorting.
        assert store.to_polynomial(two_x) == (
            Polynomial.variable("x") + Polynomial.variable("x")
        )
        x_squared = store.product_of([x, x])
        assert store.to_polynomial(x_squared) == (
            Polynomial.variable("x") * Polynomial.variable("x")
        )
        # Nested sums flatten into one canonical node.
        nested = store.sum_of([store.sum_of([x, x]), x])
        assert nested == store.sum_of([x, x, x])

    def test_shared_subcircuits_stored_once(self):
        store = CircuitStore()
        shared = store.product_of([store.var("a"), store.var("b")])
        before = store.node_count()
        again = store.product_of([store.var("b"), store.var("a")])
        assert again == shared
        assert store.node_count() == before

    def test_to_polynomial_budget(self):
        store = CircuitStore()
        # (a0 + b0) * (a1 + b1) * ... expands to 2^n monomials.
        factors = [
            store.sum_of([store.var(f"a{i}"), store.var(f"b{i}")]) for i in range(6)
        ]
        node = store.product_of(factors)
        assert store.to_polynomial(node).monomial_count() == 64
        with pytest.raises(ProvenanceError):
            store.to_polynomial(node, max_monomials=10)

    def test_evaluator_matches_polynomial(self):
        store = CircuitStore()
        node = store.sum_of(
            [
                store.product_of([store.var("x"), store.var("y")]),
                store.var("x"),
                ONE,
            ]
        )
        assignment = {"x": 2, "y": 3}
        evaluator = CircuitEvaluator(store, CountingSemiring(), assignment)
        assert evaluator.value(node) == store.to_polynomial(node).evaluate(
            CountingSemiring(), assignment
        )

    def test_evaluator_memo_persists(self):
        store = CircuitStore()
        node = store.product_of([store.var("x"), store.var("y")])
        evaluator = CircuitEvaluator(store, CountingSemiring(), {"x": 2, "y": 5})
        assert evaluator.value(node) == 10
        memo_before = evaluator.memo_size()
        assert evaluator.value(node) == 10
        assert evaluator.memo_size() == memo_before

    def test_reachable_size_and_variables(self):
        store = CircuitStore()
        shared = store.product_of([store.var("a"), store.var("b")])
        root = store.sum_of([shared, store.var("c")])
        nodes, edges = store.reachable_size([root])
        # root, shared, a, b, c -> 5 nodes; root has 2 children, shared 2.
        assert (nodes, edges) == (5, 4)
        assert store.variables(root) == {"a", "b", "c"}


class TestGraphCircuit:
    def build_diamond(self) -> ProvenanceGraph:
        """a and b jointly derive m; m derives t; b also derives t directly."""
        graph = ProvenanceGraph()
        graph.add_base_tuple("A", (1,), "a")
        graph.add_base_tuple("B", (1,), "b")
        graph.add_derivation("m1", ("M", (1,)), [("A", (1,)), ("B", (1,))])
        graph.add_derivation("m2", ("T", (1,)), [("M", (1,))])
        graph.add_derivation("m3", ("T", (1,)), [("B", (1,))])
        return graph

    def test_roots_are_cached_and_shared(self):
        graph = self.build_diamond()
        root = graph.root("T", (1,))
        assert root == graph.root("T", (1,))  # cached
        nodes, edges = graph.dag_size("T", (1,))
        assert nodes >= 4 and edges >= 3

    def test_annotation_matches_polynomial(self):
        graph = self.build_diamond()
        polynomial = graph.polynomial_for("T", (1,))
        assignment = {"a": 2, "b": 3}
        assert graph.annotation(
            "T", (1,), CountingSemiring(), assignment
        ) == polynomial.evaluate(CountingSemiring(), assignment)

    def test_insertion_invalidates_dependent_roots(self):
        graph = self.build_diamond()
        before = graph.polynomial_for("T", (1,))
        graph.add_base_tuple("C", (1,), "c")
        graph.add_derivation("m4", ("T", (1,)), [("C", (1,))])
        after = graph.polynomial_for("T", (1,))
        assert after == before + Polynomial.variable("c")

    def test_deletion_invalidates_only_dependents(self):
        graph = self.build_diamond()
        # Warm every root and the all-trusted memo.
        assert graph.unsupported_tuples() == []
        graph.remove_base_tuple("A", (1,))
        unsupported = set(graph.unsupported_tuples())
        # M lost its only support; T survives through b.
        assert ("M", (1,)) in unsupported
        assert ("A", (1,)) in unsupported
        assert ("T", (1,)) not in unsupported
        # Matches a from-scratch graph replaying the post-deletion state.
        fresh = merge_graphs([graph])
        assert set(fresh.unsupported_tuples()) == unsupported

    def test_deep_derivation_chain_compiles_iteratively(self):
        # 5000 copy-mapping hops: the explicit-frame compiler must not hit
        # Python's recursion limit on a cold-cache query of the deepest tuple.
        graph = ProvenanceGraph()
        graph.add_base_tuple("R", (0,), "x0")
        depth = 5000
        for i in range(1, depth + 1):
            graph.add_derivation(f"m{i}", ("R", (i,)), [("R", (i - 1,))])
        assert graph.is_derivable("R", (depth,))
        assert graph.polynomial_for("R", (depth,)) == Polynomial.variable("x0")
        assert not graph.is_derivable("R", (depth,), set())
        # The bounded reference walker refuses (cleanly) instead of crashing.
        with pytest.raises(ProvenanceError):
            reference_polynomial(graph, "R", (depth,))
        # Deleting the root invalidates the whole chain incrementally.
        graph.remove_base_tuple("R", (0,))
        assert ("R", (depth,)) in set(graph.unsupported_tuples())

    def test_unhashable_semiring_uses_uncached_evaluator(self):
        class UnhashableBoolean(BooleanSemiring):
            __hash__ = None  # e.g. a dataclass with eq=True

        graph = self.build_diamond()
        annotations = graph.evaluate(UnhashableBoolean(), {"a": True, "b": True})
        assert annotations[("T", (1,))] is True
        # T's support is a*b + b, so it stands or falls with b.
        assert graph.annotation("T", (1,), UnhashableBoolean(), {"a": False, "b": True})
        assert not graph.annotation("T", (1,), UnhashableBoolean(), {"a": True, "b": False})

    def test_default_expansion_budget_guards_polynomial_for(self):
        # A join of two 350-way unions: the polynomial has 350^2 = 122,500
        # monomials while the circuit stays linear in the alternatives; the
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
        # ...and the DAG answers instantly regardless of expansion size.
        assignment = {v: 1 for v in graph.base_variables()}
        assert graph.annotation("T", (0,), CountingSemiring(), assignment) == width * width

    def test_rule_variable_treatment_does_not_share_evaluators(self):
        from repro.provenance import BooleanSemiring as Boolean
        from repro.provenance import MembershipAssignment

        graph = ProvenanceGraph(annotate_mappings=True)
        graph.add_base_tuple("R", (1,), "r")
        graph.add_derivation("m1", ("T", (1,)), [("R", (1,))])
        # Default trust question: mapping variables count as trusted.
        assert graph.is_derivable("T", (1,), {"r"})
        # Same trusted set, but mapping variables explicitly untrusted: must
        # not collide with the cached evaluator above.
        strict = MembershipAssignment({"r"}, rule_variables=set())
        value = graph.evaluator(Boolean(), strict, default=False).value(
            graph.root("T", (1,))
        )
        assert value is False

    def test_budget_precheck_raises_before_materialising_product(self):
        store = CircuitStore()
        left = store.sum_of([store.var(f"a{i}") for i in range(300)])
        right = store.sum_of([store.var(f"b{i}") for i in range(300)])
        node = store.product_of([left, right])
        # 300 * 300 = 90,000 would exceed the budget of 1,000; the pre-check
        # must raise without building the product.
        with pytest.raises(ProvenanceError):
            store.to_polynomial(node, max_monomials=1_000)

    def test_cached_evaluator_immune_to_caller_mutation(self):
        graph = self.build_diamond()
        assignment = {"a": 2, "b": 3}
        first = graph.annotation("T", (1,), CountingSemiring(), assignment)
        assignment["b"] = 999  # must not corrupt the cached evaluator
        again = graph.annotation("T", (1,), CountingSemiring(), {"a": 2, "b": 3})
        assert first == again

    def test_store_sharing_across_graphs(self):
        first = self.build_diamond()
        first.root("T", (1,))
        interned = first.circuit.node_count()
        second = ProvenanceGraph(store=first.circuit)
        second.add_base_tuple("A", (1,), "a")
        second.add_base_tuple("B", (1,), "b")
        second.add_derivation("m1", ("M", (1,)), [("A", (1,)), ("B", (1,))])
        second.root("M", (1,))
        # The replayed sub-derivation interned nothing new.
        assert second.circuit.node_count() == interned


# ---------------------------------------------------------------------------
# Property sweep: 8 generated networks, DAG vs expanded polynomials
# ---------------------------------------------------------------------------

NETWORK_SEEDS = range(1, 9)
SWEEP_CONFIG = SimulationConfig(
    epochs=2, max_peers=4, transactions_per_epoch=(2, 4)
)
#: Expansion budget: tuples beyond it are exactly the DAG's raison d'être.
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
                base.add(
                    published_relation(command.peer, command.relation), command.values
                )
    return evaluate_with_provenance(program, base)


def _assignments(variables):
    ordered = sorted(variables)
    trusted = set(ordered[::2])
    clearances = [TrustLevel.PUBLIC, TrustLevel.CONFIDENTIAL, TrustLevel.SECRET]
    return [
        (BooleanSemiring(), {v: (v in trusted) for v in ordered}),
        (SecuritySemiring(), {v: clearances[i % 3] for i, v in enumerate(ordered)}),
        (TropicalSemiring(), {v: float(1 + i % 4) for i, v in enumerate(ordered)}),
        (CountingSemiring(), {v: 1 + i % 3 for i, v in enumerate(ordered)}),
    ]


@pytest.mark.parametrize("seed", NETWORK_SEEDS)
def test_dag_equals_expanded_on_generated_network(seed):
    result = _provenance_for_seed(seed)
    graph = result.graph
    derived = [node.key for node in graph.tuples() if not node.is_base]
    assert derived, f"seed {seed} derived nothing"
    cases = _assignments(graph.base_variables())
    checked = 0
    for relation, values in derived:
        try:
            # The reference expansion walks the derivation hyper-graph and
            # never touches the circuit store: a fully independent oracle.
            polynomial = reference_polynomial(
                graph, relation, values, max_monomials=SWEEP_BUDGET
            )
        except ProvenanceError:
            continue
        # The lazy circuit view must expand to the same polynomial.
        assert graph.polynomial_for(relation, values) == polynomial
        root = graph.root(relation, values)
        for semiring, assignment in cases:
            completed = {
                v: assignment.get(v, semiring.one()) for v in polynomial.variables()
            }
            expanded = polynomial.evaluate(semiring, completed)
            dag = graph.annotation(relation, values, semiring, assignment)
            assert dag == expanded, (
                f"seed {seed}: {relation}{values!r} under {semiring.name}: "
                f"dag={dag!r} expanded={expanded!r}"
            )
            # A cold evaluator on the shared store agrees with the memoized path.
            assert CircuitEvaluator(graph.circuit, semiring, assignment).value(root) == dag
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("seed", NETWORK_SEEDS)
def test_deletion_invalidation_matches_fresh_graph(seed):
    result = _provenance_for_seed(seed)
    graph = result.graph
    # Warm every root and the shared all-trusted memo table.
    assert isinstance(graph.unsupported_tuples(), list)
    base_keys = sorted(
        (node.key for node in graph.tuples() if node.is_base), key=repr
    )
    victims = base_keys[::3]
    for relation, values in victims:
        graph.remove_base_tuple(relation, values)
    # Incremental invalidation (only affected roots recompiled) must agree
    # with a from-scratch graph replaying the post-deletion state into a
    # fresh store with cold caches.
    fresh = merge_graphs([graph])
    assert set(graph.unsupported_tuples()) == set(fresh.unsupported_tuples())
    counting = CountingSemiring()
    assignment = {v: 1 for v in graph.base_variables()}
    incremental = graph.evaluate(counting, assignment)
    scratch = fresh.evaluate(counting, assignment)
    assert incremental == scratch
