"""Unit and property-based tests for provenance polynomials N[X]."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProvenanceError
from repro.provenance.polynomial import Monomial, Polynomial
from repro.provenance.semiring import BooleanSemiring, CountingSemiring, TropicalSemiring

variables = st.sampled_from(["x", "y", "z", "w"])


@st.composite
def polynomials(draw) -> Polynomial:
    """Random small polynomials built from variables, +, * and constants."""
    count = draw(st.integers(min_value=0, max_value=3))
    result = Polynomial.zero()
    for _ in range(count):
        monomial_vars = draw(st.lists(variables, min_size=0, max_size=3))
        coefficient = draw(st.integers(min_value=1, max_value=3))
        term = Polynomial.constant(coefficient)
        for name in monomial_vars:
            term = term * Polynomial.variable(name)
        result = result + term
    return result


class TestMonomial:
    def test_from_variables_counts_multiplicity(self):
        monomial = Monomial.from_variables(["x", "y", "x"])
        assert dict(monomial.powers) == {"x": 2, "y": 1}
        assert monomial.degree == 3

    def test_multiply(self):
        left = Monomial.from_variables(["x"])
        right = Monomial.from_variables(["x", "y"])
        assert dict(left.multiply(right).powers) == {"x": 2, "y": 1}

    def test_unit(self):
        assert Monomial.unit().degree == 0
        assert str(Monomial.unit()) == "1"

    def test_invalid_power_rejected(self):
        with pytest.raises(ProvenanceError):
            Monomial((("x", 0),))
        with pytest.raises(ProvenanceError):
            Monomial((("x", -2),))

    def test_from_variables_empty_is_unit(self):
        assert Monomial.from_variables([]) == Monomial.unit()
        assert Monomial.from_variables(iter(())) == Monomial.unit()

    def test_construction_order_is_canonicalised(self):
        # x*y and y*x are the same monomial regardless of tuple order.
        forward = Monomial((("x", 1), ("y", 2)))
        backward = Monomial((("y", 2), ("x", 1)))
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert forward == Monomial.from_variables(["y", "x", "y"])

    def test_duplicate_entries_are_merged(self):
        split = Monomial((("x", 1), ("x", 1)))
        assert split == Monomial.from_variables(["x", "x"])
        assert split.degree == 2

    def test_list_powers_are_coerced_hashable(self):
        monomial = Monomial([("y", 1), ("x", 1)])
        assert isinstance(monomial.powers, tuple)
        assert hash(monomial) == hash(Monomial((("x", 1), ("y", 1))))


class TestPolynomialBasics:
    def test_zero_and_one(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial.one().is_one()
        assert not Polynomial.variable("x").is_zero()

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ProvenanceError):
            Polynomial({Monomial.unit(): -1})

    def test_negative_constant_rejected(self):
        with pytest.raises(ProvenanceError):
            Polynomial.constant(-2)

    def test_addition_merges_monomials(self):
        x = Polynomial.variable("x")
        assert (x + x).coefficient(Monomial.from_variables(["x"])) == 2

    def test_multiplication_distributes(self):
        x, y, z = (Polynomial.variable(name) for name in "xyz")
        assert x * (y + z) == x * y + x * z

    def test_variables(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        assert (x * y + x).variables() == {"x", "y"}

    def test_degree(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        assert (x * y * y + x).degree == 3

    def test_str_rendering(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        assert str(Polynomial.zero()) == "0"
        assert "x" in str(x * y + x)

    def test_zero_coefficients_never_survive_normalisation(self):
        explicit = Polynomial({Monomial.from_variables(["x"]): 0})
        assert explicit.is_zero()
        assert explicit == Polynomial.zero()
        assert hash(explicit) == hash(Polynomial.zero())

    def test_equality_independent_of_construction_order(self):
        xy_then_x = Polynomial.variable("x") * Polynomial.variable("y") + Polynomial.variable("x")
        x_then_yx = Polynomial.variable("x") + Polynomial.variable("y") * Polynomial.variable("x")
        assert xy_then_x == x_then_yx
        assert hash(xy_then_x) == hash(x_then_yx)
        direct = Polynomial(
            {
                Monomial((("y", 1), ("x", 1))): 1,
                Monomial((("x", 1),)): 1,
            }
        )
        assert direct == xy_then_x
        assert hash(direct) == hash(xy_then_x)


class TestPolynomialLaws:
    @settings(max_examples=40, deadline=None)
    @given(a=polynomials(), b=polynomials(), c=polynomials())
    def test_semiring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Polynomial.zero() == a
        assert a * Polynomial.one() == a
        assert (a * Polynomial.zero()).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(a=polynomials(), b=polynomials(), data=st.data())
    def test_evaluation_is_homomorphism(self, a, b, data):
        """Evaluating commutes with + and * (universality of N[X])."""
        semiring = CountingSemiring()
        names = sorted((a.variables() | b.variables()))
        assignment = {
            name: data.draw(st.integers(min_value=0, max_value=4)) for name in names
        }
        left = (a + b).evaluate(semiring, assignment)
        right = semiring.plus(a.evaluate(semiring, assignment), b.evaluate(semiring, assignment))
        assert left == right
        left = (a * b).evaluate(semiring, assignment)
        right = semiring.times(a.evaluate(semiring, assignment), b.evaluate(semiring, assignment))
        assert left == right


class TestEvaluation:
    def test_boolean_evaluation(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        polynomial = x * y + x
        assert polynomial.evaluate(BooleanSemiring(), {"x": True, "y": False})
        assert not polynomial.evaluate(BooleanSemiring(), {"x": False, "y": True})

    def test_counting_evaluation(self):
        x = Polynomial.variable("x")
        polynomial = x * x + Polynomial.constant(3)
        assert polynomial.evaluate(CountingSemiring(), {"x": 2}) == 7

    def test_tropical_evaluation(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        polynomial = x * y + y
        assert polynomial.evaluate(TropicalSemiring(), {"x": 4.0, "y": 1.0}) == 1.0

    def test_missing_assignment_rejected(self):
        with pytest.raises(ProvenanceError):
            Polynomial.variable("x").evaluate(CountingSemiring(), {})
