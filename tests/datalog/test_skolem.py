"""Unit tests for skolemisation of existential variables."""

from repro.datalog.ast import SkolemTerm, Variable
from repro.datalog.parser import parse_atom
from repro.datalog.skolem import (
    SkolemFactory,
    is_labelled_null,
    skolemize_head,
)


class TestSkolemFactory:
    def test_deterministic_function_names(self):
        factory = SkolemFactory()
        first = factory.function_name("M_CA", "oid")
        second = factory.function_name("M_CA", "oid")
        assert first == second

    def test_distinct_names_per_variable_and_mapping(self):
        factory = SkolemFactory()
        assert factory.function_name("M_CA", "oid") != factory.function_name("M_CA", "pid")
        assert factory.function_name("M_CA", "oid") != factory.function_name("M_X", "oid")

    def test_prefix_respected(self):
        factory = SkolemFactory(prefix="NULL")
        assert factory.function_name("m", "v").startswith("NULL_")

    def test_issued_functions(self):
        factory = SkolemFactory()
        factory.function_name("m", "a")
        factory.function_name("m", "b")
        assert len(factory.issued_functions()) == 2


class TestSkolemizeHead:
    def test_no_existentials_unchanged(self):
        heads = [parse_atom("T(x, y)")]
        body_vars = {Variable("x"), Variable("y")}
        result = skolemize_head(heads, body_vars, "m", SkolemFactory())
        assert result == heads

    def test_existential_replaced_by_skolem(self):
        heads = [parse_atom("O(org, oid)")]
        body_vars = {Variable("org")}
        result = skolemize_head(heads, body_vars, "m", SkolemFactory())
        oid_term = result[0].terms[1]
        assert isinstance(oid_term, SkolemTerm)
        assert oid_term.arguments == (Variable("org"),)

    def test_same_existential_shared_across_head_atoms(self):
        heads = [parse_atom("O(org, oid)"), parse_atom("S(oid, seq)")]
        body_vars = {Variable("org"), Variable("seq")}
        result = skolemize_head(heads, body_vars, "m", SkolemFactory())
        assert result[0].terms[1] == result[1].terms[0]

    def test_two_existentials_get_different_functions(self):
        heads = [parse_atom("S(oid, pid, seq)")]
        body_vars = {Variable("seq")}
        result = skolemize_head(heads, body_vars, "m", SkolemFactory())
        oid_term, pid_term, _ = result[0].terms
        assert isinstance(oid_term, SkolemTerm)
        assert isinstance(pid_term, SkolemTerm)
        assert oid_term.function != pid_term.function


class TestLabelledNulls:
    def test_is_labelled_null(self):
        assert is_labelled_null(SkolemTerm("SK_f", ("a",)))
        assert not is_labelled_null(SkolemTerm("SK_f", (Variable("x"),)))
        assert not is_labelled_null("plain value")
