"""Unit tests for the datalog AST: terms, atoms, rules, programs."""

import pytest

from repro.datalog.ast import (
    Atom,
    Comparison,
    Constant,
    Fact,
    Program,
    Rule,
    SkolemTerm,
    Variable,
    term_variables,
)
from repro.errors import DatalogError, UnsafeRuleError


class TestTerms:
    def test_variable_equality(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_constant_wraps_value(self):
        assert Constant(5).value == 5
        assert Constant("abc").value == "abc"

    def test_skolem_term_is_ground_without_variables(self):
        term = SkolemTerm("SK_f", ("a", 1))
        assert term.is_ground

    def test_skolem_term_not_ground_with_variable(self):
        term = SkolemTerm("SK_f", (Variable("x"),))
        assert not term.is_ground

    def test_nested_skolem_groundness(self):
        inner = SkolemTerm("SK_g", (Variable("y"),))
        outer = SkolemTerm("SK_f", (inner,))
        assert not outer.is_ground

    def test_skolem_terms_equal_by_structure(self):
        assert SkolemTerm("f", (1, 2)) == SkolemTerm("f", (1, 2))
        assert SkolemTerm("f", (1, 2)) != SkolemTerm("f", (2, 1))
        assert SkolemTerm("f", (1,)) != SkolemTerm("g", (1,))

    def test_term_variables_recurses_into_skolems(self):
        term = SkolemTerm("f", (Variable("x"), SkolemTerm("g", (Variable("y"),))))
        assert {v.name for v in term_variables(term)} == {"x", "y"}


class TestAtoms:
    def test_arity(self):
        atom = Atom("R", (Constant(1), Variable("x")))
        assert atom.arity == 2

    def test_variables(self):
        atom = Atom("R", (Constant(1), Variable("x"), SkolemTerm("f", (Variable("y"),))))
        assert {v.name for v in atom.variables()} == {"x", "y"}

    def test_is_ground(self):
        assert Atom("R", (Constant(1),)).is_ground()
        assert not Atom("R", (Variable("x"),)).is_ground()

    def test_negate_flips_flag(self):
        atom = Atom("R", (Constant(1),))
        assert atom.negate().negated
        assert not atom.negate().negate().negated


class TestComparison:
    def test_supported_operators(self):
        comparison = Comparison("<", Variable("x"), Constant(3))
        assert comparison.evaluate(2, 3)
        assert not comparison.evaluate(4, 3)

    def test_unknown_operator_rejected(self):
        with pytest.raises(DatalogError):
            Comparison("~~", Variable("x"), Constant(3))

    def test_mixed_type_comparison_is_false(self):
        comparison = Comparison("<", Variable("x"), Constant(3))
        assert comparison.evaluate("a", 3) is False

    def test_equality_operators(self):
        assert Comparison("=", Variable("x"), Variable("y")).evaluate(1, 1)
        assert Comparison("!=", Variable("x"), Variable("y")).evaluate(1, 2)


class TestRules:
    def test_negated_head_rejected(self):
        with pytest.raises(DatalogError):
            Rule(Atom("R", (Variable("x"),), negated=True), ())

    def test_safe_rule_validates(self):
        rule = Rule(
            Atom("T", (Variable("x"),)),
            (Atom("R", (Variable("x"), Variable("y"))),),
        )
        rule.validate()

    def test_unsafe_head_variable(self):
        rule = Rule(Atom("T", (Variable("z"),)), (Atom("R", (Variable("x"),)),))
        with pytest.raises(UnsafeRuleError):
            rule.validate()

    def test_unsafe_negated_variable(self):
        rule = Rule(
            Atom("T", (Variable("x"),)),
            (
                Atom("R", (Variable("x"),)),
                Atom("S", (Variable("y"),), negated=True),
            ),
        )
        with pytest.raises(UnsafeRuleError):
            rule.validate()

    def test_unsafe_comparison_variable(self):
        rule = Rule(
            Atom("T", (Variable("x"),)),
            (Atom("R", (Variable("x"),)), Comparison("<", Variable("z"), Constant(3))),
        )
        with pytest.raises(UnsafeRuleError):
            rule.validate()

    def test_skolem_in_head_is_safe_when_arguments_bound(self):
        rule = Rule(
            Atom("T", (SkolemTerm("f", (Variable("x"),)),)),
            (Atom("R", (Variable("x"),)),),
        )
        rule.validate()

    def test_body_partitions(self):
        rule = Rule(
            Atom("T", (Variable("x"),)),
            (
                Atom("R", (Variable("x"),)),
                Atom("S", (Variable("x"),), negated=True),
                Comparison(">", Variable("x"), Constant(0)),
            ),
        )
        assert len(rule.positive_body) == 1
        assert len(rule.negative_body) == 1
        assert len(rule.comparisons) == 1

    def test_is_fact(self):
        assert Rule(Atom("R", (Constant(1),)), ()).is_fact
        assert not Rule(Atom("R", (Variable("x"),)), (Atom("S", (Variable("x"),)),)).is_fact


class TestProgram:
    def _simple_program(self) -> Program:
        program = Program()
        program.add(
            Rule(Atom("T", (Variable("x"),)), (Atom("R", (Variable("x"),)),))
        )
        program.add(
            Rule(Atom("U", (Variable("x"),)), (Atom("T", (Variable("x"),)),))
        )
        return program

    def test_idb_and_edb_predicates(self):
        program = self._simple_program()
        assert program.idb_predicates == {"T", "U"}
        assert program.edb_predicates == {"R"}

    def test_rules_for(self):
        program = self._simple_program()
        assert len(program.rules_for("T")) == 1
        assert program.rules_for("missing") == []

    def test_add_validates(self):
        program = Program()
        with pytest.raises(UnsafeRuleError):
            program.add(Rule(Atom("T", (Variable("x"),)), ()))

    def test_dependency_edges(self):
        program = self._simple_program()
        edges = set(program.dependency_edges())
        assert ("T", "R", False) in edges
        assert ("U", "T", False) in edges

    def test_len_and_iter(self):
        program = self._simple_program()
        assert len(program) == 2
        assert len(list(program)) == 2


class TestFact:
    def test_fact_values_tuple(self):
        fact = Fact("R", [1, 2])
        assert fact.values == (1, 2)
        assert fact.arity == 2
