"""Unit and property-based tests for the semiring instances.

The property tests check the commutative-semiring laws on every built-in
instance: associativity and commutativity of + and *, identities, and
annihilation by zero.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SemiringError
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


def _value_strategy(name: str):
    """A hypothesis strategy producing values of the given semiring."""
    if name == "boolean":
        return st.booleans()
    if name == "counting":
        return st.integers(min_value=0, max_value=20)
    if name == "tropical":
        # Integer-valued costs keep float addition exactly associative.
        return st.one_of(
            st.integers(min_value=0, max_value=100).map(float),
            st.just(float("inf")),
        )
    if name == "fuzzy":
        return st.floats(min_value=0, max_value=1, allow_nan=False)
    if name == "security":
        return st.sampled_from(list(TrustLevel))
    if name == "lineage":
        return st.one_of(
            st.none(),
            st.frozensets(st.integers(min_value=0, max_value=5), max_size=4),
        )
    if name == "why":
        return st.frozensets(
            st.frozensets(st.integers(min_value=0, max_value=3), max_size=3), max_size=3
        )
    raise AssertionError(name)


#: Every built-in instance whose values the strategies above can draw.
LAW_SEMIRINGS = {
    semiring.name: semiring
    for semiring in (
        BooleanSemiring(),
        CountingSemiring(),
        TropicalSemiring(),
        FuzzySemiring(),
        SecuritySemiring(),
        LineageSemiring(),
        WhySemiring(),
    )
}


@pytest.mark.parametrize("name", list(LAW_SEMIRINGS))
class TestSemiringLaws:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_plus_commutative_and_associative(self, name, data):
        semiring = LAW_SEMIRINGS[name]
        values = _value_strategy(name)
        a, b, c = data.draw(values), data.draw(values), data.draw(values)
        assert semiring.plus(a, b) == semiring.plus(b, a)
        assert semiring.plus(semiring.plus(a, b), c) == semiring.plus(a, semiring.plus(b, c))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_times_commutative_and_associative(self, name, data):
        semiring = LAW_SEMIRINGS[name]
        values = _value_strategy(name)
        a, b, c = data.draw(values), data.draw(values), data.draw(values)
        assert semiring.times(a, b) == semiring.times(b, a)
        assert semiring.times(semiring.times(a, b), c) == semiring.times(
            a, semiring.times(b, c)
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_identities_and_annihilation(self, name, data):
        semiring = LAW_SEMIRINGS[name]
        values = _value_strategy(name)
        a = data.draw(values)
        assert semiring.plus(a, semiring.zero()) == a
        assert semiring.times(a, semiring.one()) == a
        assert semiring.times(a, semiring.zero()) == semiring.zero()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_distributivity(self, name, data):
        semiring = LAW_SEMIRINGS[name]
        values = _value_strategy(name)
        a, b, c = data.draw(values), data.draw(values), data.draw(values)
        left = semiring.times(a, semiring.plus(b, c))
        right = semiring.plus(semiring.times(a, b), semiring.times(a, c))
        assert left == right


class TestBooleanSemiring:
    def test_basic_values(self):
        semiring = BooleanSemiring()
        assert semiring.zero() is False
        assert semiring.one() is True
        assert semiring.plus(False, True) is True
        assert semiring.times(True, False) is False


class TestCountingSemiring:
    def test_counts(self):
        semiring = CountingSemiring()
        assert semiring.plus(2, 3) == 5
        assert semiring.times(2, 3) == 6

    def test_sum_and_product_helpers(self):
        semiring = CountingSemiring()
        assert semiring.sum([1, 2, 3]) == 6
        assert semiring.product([2, 3]) == 6


class TestTropicalSemiring:
    def test_min_plus(self):
        semiring = TropicalSemiring()
        assert semiring.plus(3.0, 5.0) == 3.0
        assert semiring.times(3.0, 5.0) == 8.0
        assert semiring.is_zero(float("inf"))


class TestFuzzySemiring:
    def test_max_min(self):
        semiring = FuzzySemiring()
        assert semiring.plus(0.3, 0.7) == 0.7
        assert semiring.times(0.3, 0.7) == 0.3

    def test_out_of_range_rejected(self):
        semiring = FuzzySemiring()
        with pytest.raises(SemiringError):
            semiring.plus(1.5, 0.5)


class TestSecuritySemiring:
    def test_clearances(self):
        semiring = SecuritySemiring()
        assert semiring.plus(TrustLevel.SECRET, TrustLevel.PUBLIC) == TrustLevel.PUBLIC
        assert semiring.times(TrustLevel.SECRET, TrustLevel.PUBLIC) == TrustLevel.SECRET
        assert semiring.zero() == TrustLevel.NEVER
        assert semiring.one() == TrustLevel.ALWAYS


class TestWhyAndLineage:
    def test_why_provenance_witnesses(self):
        semiring = WhySemiring()
        left = frozenset({frozenset({"a"})})
        right = frozenset({frozenset({"b"})})
        combined = semiring.times(left, right)
        assert combined == frozenset({frozenset({"a", "b"})})

    def test_lineage_unions(self):
        semiring = LineageSemiring()
        assert semiring.times(frozenset({"a"}), frozenset({"b"})) == frozenset({"a", "b"})
        assert semiring.plus(frozenset({"a"}), frozenset({"b"})) == frozenset({"a", "b"})


class TestPolynomialSemiring:
    def test_wraps_polynomials(self):
        from repro.provenance.polynomial import Polynomial

        semiring = PolynomialSemiring()
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        assert semiring.plus(x, y) == x + y
        assert semiring.times(x, y) == x * y
        assert semiring.is_zero(semiring.zero())
