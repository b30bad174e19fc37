"""Unit tests for the reference matcher of the plan tests (``matching.py``)."""

import pytest

from repro.datalog.ast import Atom, Constant, SkolemTerm, Variable

from matching import Substitution, match_atom, match_term


class TestSubstitution:
    def test_bind_new_variable(self):
        subst = Substitution()
        extended = subst.bind(Variable("x"), 1)
        assert extended is not None
        assert extended.apply_term(Variable("x")) == 1
        # Original substitution is unchanged.
        assert subst.apply_term(Variable("x")) == Variable("x")

    def test_bind_conflicting_value_fails(self):
        subst = Substitution({Variable("x"): 1})
        assert subst.bind(Variable("x"), 2) is None

    def test_bind_same_value_succeeds(self):
        subst = Substitution({Variable("x"): 1})
        assert subst.bind(Variable("x"), 1) is subst

    def test_apply_term_constant_and_variable(self):
        subst = Substitution({Variable("x"): 7})
        assert subst.apply_term(Constant(3)) == 3
        assert subst.apply_term(Variable("x")) == 7
        assert subst.apply_term(Variable("unbound")) == Variable("unbound")

    def test_apply_term_builds_ground_skolem(self):
        subst = Substitution({Variable("x"): "E. coli"})
        value = subst.apply_term(SkolemTerm("f", (Variable("x"),)))
        assert isinstance(value, SkolemTerm)
        assert value.is_ground
        assert value.arguments == ("E. coli",)

    def test_ground_values(self):
        subst = Substitution({Variable("x"): 1, Variable("y"): 2})
        values = subst.ground_values(Atom("R", (Variable("x"), Variable("y"))))
        assert values == (1, 2)

    def test_ground_values_rejects_an_unbound_variable(self):
        with pytest.raises(ValueError):
            Substitution().ground_values(Atom("R", (Variable("x"),)))


class TestMatching:
    def test_match_constant(self):
        assert match_term(Constant(1), 1, Substitution()) is not None
        assert match_term(Constant(1), 2, Substitution()) is None

    def test_match_variable_binds(self):
        result = match_term(Variable("x"), 5, Substitution())
        assert result is not None
        assert result.apply_term(Variable("x")) == 5

    def test_match_skolem_structure(self):
        pattern = SkolemTerm("f", (Variable("x"),))
        value = SkolemTerm("f", ("E. coli",))
        result = match_term(pattern, value, Substitution())
        assert result is not None
        assert result.apply_term(Variable("x")) == "E. coli"

    def test_match_skolem_wrong_function(self):
        pattern = SkolemTerm("f", (Variable("x"),))
        assert match_term(pattern, SkolemTerm("g", ("a",)), Substitution()) is None

    def test_match_skolem_against_scalar_fails(self):
        pattern = SkolemTerm("f", (Variable("x"),))
        assert match_term(pattern, "not-a-skolem", Substitution()) is None

    def test_match_atom_repeated_variable(self):
        atom = Atom("R", (Variable("x"), Variable("x")))
        assert match_atom(atom, (1, 1)) is not None
        assert match_atom(atom, (1, 2)) is None

    def test_match_atom_wrong_arity(self):
        assert match_atom(Atom("R", (Variable("x"),)), (1, 2)) is None
