"""Tests for the compiled rule-execution core (plan + executor).

Two layers:

* unit tests pinning down plan compilation — greedy atom ordering, probe
  selection, early guard placement, delta plans, cache sharing;
* differential property tests: a naive tuple-at-a-time *interpreted*
  evaluator (built on the reference matcher in ``matching.py``, the
  pre-compilation execution path) is run against the compiled executor
  over randomly generated CDSS networks from
  :mod:`repro.workloads.simulation`, asserting identical databases and
  identical provenance polynomials across plain, incremental, and
  provenance evaluation, plus hand-written edge-case programs checked the
  same way and against their expected relation.
"""

import random

import pytest

from repro.core.system import CDSS
from repro.datalog.ast import Atom, Comparison, Fact, SkolemTerm
from repro.datalog.evaluation import Database, evaluate_program
from repro.datalog.executor import ExecutionStats, fire_rule
from repro.datalog.incremental import IncrementalEngine
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.plan import compile_program, compile_rule
from repro.datalog.provenance_eval import (
    default_variable_namer,
    evaluate_with_provenance,
)
from repro.datalog.stratification import stratify
from repro.errors import DatalogError
from repro.exchange.rules import published_relation
from repro.provenance.graph import ProvenanceGraph
from repro.workloads.simulation import (
    RandomWorkload,
    SimulationConfig,
    generate_network,
)

from matching import Substitution, match_atom


class TestPlanCompilation:
    def test_probe_on_joined_variable(self):
        compiled = compile_rule(parse_rule("T(x, z) :- R(x, y), S(y, z)."))
        assert compiled.plan_for(None).description == ("scan R", "probe S[0]")

    def test_probe_on_constant(self):
        compiled = compile_rule(parse_rule("T(y) :- R('key', y)."))
        assert compiled.plan_for(None).description == ("probe R[0]",)

    def test_comparison_placed_at_earliest_bound_point(self):
        compiled = compile_rule(parse_rule("T(x, z) :- R(x, y), S(y, z), x < y."))
        assert compiled.plan_for(None).description == (
            "scan R",
            "compare <",
            "probe S[0]",
        )

    def test_negation_placed_before_unrelated_atom(self):
        compiled = compile_rule(parse_rule("T(x, y) :- R(x), not S(x), U(x, y)."))
        assert compiled.plan_for(None).description == (
            "scan R",
            "negation S",
            "probe U[0]",
        )

    def test_delta_atom_leads_its_plan(self):
        """Re-recorded when delta plans became exact: R sits before the delta
        position, so its probe reads R minus the current delta (``\\ delta``)
        and a combination whose R and S rows arrived together fires once, in
        the plan for R."""
        rule = parse_rule("T(x, z) :- R(x, y), S(y, z), x < y.")
        compiled = compile_rule(rule)
        # Body position 1 is S(y, z): the delta binds y and z, R is probed
        # on its y column, and the guard fires once x is bound.
        assert compiled.plan_for(1).description == (
            "delta S",
            "probe R[1] \\ delta",
            "compare <",
        )
        assert compiled.plan_for(0).description == ("delta R", "compare <", "probe S[0]")

    def test_greedy_ordering_prefers_shared_variables(self):
        # Body order would join R x U as a cross product before S connects
        # them; the greedy order interposes S.
        compiled = compile_rule(parse_rule("T(a, c) :- R(a, b), U(c, d), S(b, c)."))
        assert compiled.plan_for(None).description == (
            "scan R",
            "probe S[0]",
            "probe U[0]",
        )

    def test_demanded_indexes_cover_all_plans(self):
        compiled = compile_rule(parse_rule("T(x, z) :- R(x, y), S(y, z)."))
        # Plain plan probes S[0]; delta-on-S probes R[1]; delta-on-R probes S[0].
        assert compiled.demanded_indexes == frozenset({("S", 0), ("R", 1)})

    def test_program_cache_shares_structural_duplicates(self):
        text = "T(x) :- R(x, y).\nU(x) :- T(x)."
        assert compile_program(parse_program(text)) is compile_program(parse_program(text))

    def test_rule_cache_shares_across_programs(self):
        rule = "T(x) :- R(x, y)."
        first = compile_program(parse_program(rule + "\nU(x) :- S(x)."))
        second = compile_program(parse_program(rule + "\nV(x) :- S(x)."))
        assert first.rules[0] is second.rules[0]

    def test_unsafe_rule_rejected_at_compile_time(self):
        with pytest.raises(DatalogError):
            compile_rule(parse_rule("T(x) :- R(y)."))

    def test_delta_plan_for_non_positive_position_rejected(self):
        compiled = compile_rule(parse_rule("T(x) :- R(x), not S(x)."))
        with pytest.raises(DatalogError):
            compiled.plan_for(1)


class TestExecutorSemantics:
    def test_skolem_term_in_body_matches_structurally(self):
        rule = parse_rule("A(x) :- B(x, SK_id(x)).")
        db = Database.from_dict(
            {
                "B": [
                    ("a", SkolemTerm("SK_id", ("a",))),
                    ("b", SkolemTerm("SK_id", ("mismatch",))),
                    ("c", "not-a-null"),
                ]
            }
        )
        assert fire_rule(compile_rule(rule), db) == {("a",)}

    def test_skolem_binding_feeds_later_plain_variable(self):
        # The skolem matcher at position 0 binds y; the plain occurrence of
        # y at position 1 must check against that binding.
        rule = parse_rule("A(y) :- B(SK_id(y), y).")
        db = Database.from_dict(
            {
                "B": [
                    (SkolemTerm("SK_id", ("a",)), "a"),
                    (SkolemTerm("SK_id", ("b",)), "other"),
                ]
            }
        )
        assert fire_rule(compile_rule(rule), db) == {("a",)}

    def test_repeated_variable_within_atom(self):
        rule = parse_rule("A(x) :- B(x, x).")
        db = Database.from_dict({"B": [(1, 1), (1, 2), (3, 3)]})
        assert fire_rule(compile_rule(rule), db) == {(1,), (3,)}

    def test_arity_mismatched_rows_are_skipped(self):
        rule = parse_rule("A(x) :- B(x, y).")
        db = Database.from_dict({"B": [(1, 2), (9,), (3, 4, 5)]})
        assert fire_rule(compile_rule(rule), db) == {(1,)}

    def test_stats_count_firings(self):
        stats = ExecutionStats()
        program = parse_program("T(x) :- R(x, y).")
        db = Database.from_dict({"R": [(1, 2), (1, 3), (4, 5)]})
        evaluate_program(program, db, stats=stats)
        # Three satisfying substitutions project onto two distinct heads.
        assert stats.rules_fired == 3
        assert stats.tuples_derived == 2


# ---------------------------------------------------------------------------
# Naive interpreted reference evaluator (the pre-compilation path)
# ---------------------------------------------------------------------------

def _interpreted_matches(rule, database):
    """Tuple-at-a-time matching: positive atoms in body order, guards last."""
    positives = [
        literal
        for literal in rule.body
        if isinstance(literal, Atom) and not literal.negated
    ]
    guards = [
        literal
        for literal in rule.body
        if not (isinstance(literal, Atom) and not literal.negated)
    ]

    def passes_guards(subst):
        for guard in guards:
            if isinstance(guard, Comparison):
                if not guard.evaluate(
                    subst.apply_term(guard.left), subst.apply_term(guard.right)
                ):
                    return False
            else:  # negated atom
                if database.contains(guard.predicate, subst.ground_values(guard)):
                    return False
        return True

    def extend(subst, index):
        if index == len(positives):
            if passes_guards(subst):
                yield subst
            return
        atom = positives[index]
        for row in database.relation(atom.predicate):
            extended = match_atom(atom, row, subst)
            if extended is not None:
                yield from extend(extended, index + 1)

    yield from extend(Substitution(), 0)


def interpreted_fixpoint(program, base, graph=None):
    """Naive stratified fixpoint via Substitution/match_atom (no plans/indexes)."""
    working = base.copy()
    if graph is not None:
        for predicate in working.predicates():
            for values in working.relation(predicate):
                graph.add_base_tuple(
                    predicate, values, default_variable_namer(predicate, values)
                )
    for stratum in stratify(program):
        changed = True
        while changed:
            changed = False
            for rule in stratum:
                label = rule.label or f"rule:{rule.head.predicate}"
                for subst in list(_interpreted_matches(rule, working)):
                    head_values = subst.ground_values(rule.head)
                    if graph is not None:
                        sources = [
                            (atom.predicate, subst.ground_values(atom))
                            for atom in rule.body
                            if isinstance(atom, Atom) and not atom.negated
                        ]
                        graph.add_derivation(
                            label, (rule.head.predicate, head_values), sources
                        )
                    if working.add(rule.head.predicate, head_values):
                        changed = True
    return working


def _relation_map(database):
    return {
        predicate: database.relation(predicate) for predicate in database.predicates()
    }


def _all_polynomials(database, graph):
    return {
        (predicate, values): graph.polynomial_for(predicate, values)
        for predicate in database.predicates()
        for values in database.relation(predicate)
    }


#: ``name -> (program, base relations, predicate, expected relation)``: the
#: value semantics a compiled plan must keep, each checked against the
#: interpreted evaluator as well as its expected relation.
EDGE_CASES = {
    # 1 == True in Python, so R(1) joins S(True).
    "numeric lookalikes": (
        "T(x) :- R(x), S(x).", {"R": [(1,)], "S": [(True,)]}, "T", {(1,)},
    ),
    # Mixed-type and None pairs compare False (Python raises TypeError);
    # numbers compare across int/float, strings lexicographically.
    "mixed-type ordering": (
        "T(x, y) :- R(x, y), x < y.",
        {"R": [(1, 2), (2, 1), ("a", "b"), (1, "z"), (None, 5), (1.5, 2)]},
        "T",
        {(1, 2), ("a", "b"), (1.5, 2)},
    ),
    "negation": (
        "T(x) :- R(x), not S(x).", {"R": [(1,), (2,), (3,)], "S": [(2,)]}, "T", {(1,), (3,)},
    ),
    "skolem head": (
        "T(x, SK_id(x)) :- R(x).",
        {"R": [("a",), ("b",)]},
        "T",
        {("a", SkolemTerm("SK_id", ("a",))), ("b", SkolemTerm("SK_id", ("b",)))},
    ),
    "skolem in a negated atom": (
        "T(x) :- R(x), not S(SK_id(x)).",
        {"R": [("a",), ("b",)], "S": [(SkolemTerm("SK_id", ("a",)),)]},
        "T",
        {("b",)},
    ),
    "repeated variable": (
        "A(x) :- B(x, x).", {"B": [(1, 1), (1, 2), (3, 3)]}, "A", {(1,), (3,)},
    ),
    "recursive closure": (
        "path(x, y) :- edge(x, y).\npath(x, z) :- path(x, y), edge(y, z).",
        {"edge": [(1, 2), (2, 3), (3, 4)]},
        "path",
        {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)},
    ),
    # A labelled null in a positive body atom matches only the equal null.
    "skolem in a positive body atom": (
        "A(x) :- B(x, SK_id(x)).",
        {"B": [("a", SkolemTerm("SK_id", ("a",))), ("b", "not-a-null"), ("c", SkolemTerm("SK_id", ("b",)))]},
        "A",
        {("a",)},
    ),
    "arity-zero head": ("T() :- R(x).", {"R": [(1,), (2,)]}, "T", {()}),
    # A derived labelled null deduplicates against the same one inserted.
    "derived null meets an inserted one": (
        "T(x, SK_id(x)) :- R(x).",
        {"R": [("a",), ("b",)], "T": [("a", SkolemTerm("SK_id", ("a",)))]},
        "T",
        {("a", SkolemTerm("SK_id", ("a",))), ("b", SkolemTerm("SK_id", ("b",)))},
    ),
    "string constant in the body": (
        "T(y) :- R('key', y).", {"R": [("key", 1), ("other", 2), ("key", 3)]}, "T", {(1,), (3,)},
    ),
    # A constant 1 matches 1.0 and True, never the string "1".
    "numeric constant lookalikes": (
        "T(y) :- R(1, y).",
        {"R": [(True, "a"), (1.0, "b"), ("1", "c"), (2, "d")]},
        "T",
        {("a",), ("b",)},
    ),
}


class TestCompiledMatchesInterpreted:
    """Differential properties over randomly generated CDSS networks and the
    rows of :data:`EDGE_CASES`."""

    CONFIG = SimulationConfig(
        epochs=3, max_peers=4, transactions_per_epoch=(2, 6)
    )

    def _epoch_fact_batches(self, spec, workload):
        """Per-epoch (delete_facts, insert_facts) over published relations."""
        batches = []
        for _ in range(self.CONFIG.epochs):
            deletes, inserts = [], []
            for command in workload.epoch_commands():
                relation = published_relation(command.peer, command.relation)
                if command.kind == "delete":
                    deletes.append(Fact(relation, command.values))
                elif command.kind == "modify":
                    deletes.append(Fact(relation, command.old_values))
                    inserts.append(Fact(relation, command.values))
                else:  # insert / conflict
                    inserts.append(Fact(relation, command.values))
            batches.append((deletes, inserts))
        return batches

    def _case(self, case):
        """``(program, per-epoch batches, (predicate, expected relation) or
        None)``: the generated network of a seed, or a row of EDGE_CASES."""
        if case in EDGE_CASES:
            text, relations, predicate, expected = EDGE_CASES[case]
            facts = [Fact(name, row) for name, rows in relations.items() for row in rows]
            return parse_program(text), [([], facts)], (predicate, frozenset(expected))
        rng = random.Random(case)
        spec = generate_network(rng, self.CONFIG)
        workload = RandomWorkload(spec, self.CONFIG, rng)
        program = CDSS.from_spec(spec).engine.program
        return program, self._epoch_fact_batches(spec, workload), None

    @pytest.mark.parametrize("case", [*range(1, 9), *EDGE_CASES])
    def test_plain_incremental_and_provenance_agree(self, case):
        program, batches, expected = self._case(case)

        with_provenance = IncrementalEngine(program, track_provenance=True)
        without_provenance = IncrementalEngine(program, track_provenance=False)
        base = Database()

        for epoch, (deletes, inserts) in enumerate(batches, start=1):
            for engine in (with_provenance, without_provenance):
                engine.apply_deletions(deletes)
                engine.apply_insertions(inserts)
            for fact in deletes:
                base.remove(fact.predicate, fact.values)
            for fact in inserts:
                base.add(fact.predicate, fact.values)

            context = f"case {case!r} epoch {epoch}"
            reference = interpreted_fixpoint(program, base)
            if expected is not None:
                predicate, relation = expected
                assert reference.relation(predicate) == relation, context
            compiled_plain = evaluate_program(program, base)
            assert _relation_map(compiled_plain) == _relation_map(reference), context

            # Incremental maintenance (both deletion strategies) reaches the
            # same fixpoint as the interpreted from-scratch evaluation.
            assert _relation_map(with_provenance.database) == _relation_map(
                reference
            ), f"{context}: provenance-deletion engine diverged"
            assert _relation_map(without_provenance.database) == _relation_map(
                reference
            ), f"{context}: DRed engine diverged"

            # Provenance: compiled recording produces the same polynomials as
            # the interpreted recorder, tuple by tuple.
            interpreted_graph = ProvenanceGraph()
            interpreted = interpreted_fixpoint(program, base, graph=interpreted_graph)
            compiled_result = evaluate_with_provenance(program, base)
            assert _all_polynomials(
                compiled_result.database, compiled_result.graph
            ) == _all_polynomials(interpreted, interpreted_graph), context


class TestHeadProjection:
    """A head is a tuple display in the kernel (the matched row itself for
    an identity copy), so every head yields a tuple of the head's arity."""

    @staticmethod
    def heads_line(rule_text: str) -> str:
        source = compile_rule(parse_rule(rule_text)).plan_for(None).source
        return next(line.strip() for line in source.splitlines() if "append(" in line)

    def test_variable_head_projects_slots_in_head_order(self):
        rule = "T(z, x, x) :- R(x, y), S(y, z)."
        assert self.heads_line(rule) == "append((v2, v0, v0))"
        db = Database.from_dict({"R": [(1, 2)], "S": [(2, 3)]})
        assert fire_rule(compile_rule(parse_rule(rule)), db) == {(3, 1, 1)}

    def test_one_column_head_still_yields_a_one_tuple(self):
        assert self.heads_line("T(x) :- R(x, y).") == "append((v0,))"
        db = Database.from_dict({"R": [(1, 2), (4, 5)]})
        assert fire_rule(compile_rule(parse_rule("T(x) :- R(x, y).")), db) == {(1,), (4,)}

    def test_zero_column_head_yields_the_empty_tuple(self):
        db = Database.from_dict({"R": [(1, 2)]})
        assert fire_rule(compile_rule(parse_rule("T() :- R(x, y).")), db) == {()}

    def test_skolem_and_constant_heads_are_unchanged(self):
        assert self.heads_line("T(x, SK_f(x, y)) :- R(x, y).") == (
            "append((v0, ground_term(f1, (v0, v1))))"
        )
        assert self.heads_line("T(x, 'k') :- R(x, y).") == "append((v0, c1))"
        db = Database.from_dict({"R": [(1, 2)]})
        assert fire_rule(compile_rule(parse_rule("T(x, SK_f(x, y), 'k') :- R(x, y).")), db) == {
            (1, SkolemTerm("SK_f", (1, 2)), "k")
        }
