"""Provenance polynomials ``N[X]``.

A provenance polynomial is a finite sum of monomials with natural-number
coefficients, where each monomial is a product of provenance *variables*
(typically identifiers of base tuples or of mapping-rule firings).  ``N[X]``
is the universal commutative semiring on the variable set ``X``: any
assignment of the variables into another commutative semiring extends
uniquely to a homomorphism on polynomials.  This is the property ORCHESTRA
exploits to evaluate many different trust policies from one stored
provenance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import ProvenanceError


@dataclass(frozen=True)
class Monomial:
    """A product of provenance variables with multiplicities, e.g. ``x^2 * y``."""

    powers: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def from_variables(variables: Iterable[str]) -> "Monomial":
        """Build a monomial from an iterable of variable names (with repetition).

        An empty iterable yields the unit monomial (``1``).
        """
        counts = Counter(variables)
        return Monomial(tuple(sorted(counts.items())))

    @staticmethod
    def unit() -> "Monomial":
        """The empty monomial (multiplicative identity)."""
        return Monomial(())

    def __post_init__(self) -> None:
        merged: Counter = Counter()
        for variable, power in self.powers:
            if power <= 0:
                raise ProvenanceError(
                    f"monomial power for {variable!r} must be positive, got {power}"
                )
            merged[variable] += power
        # Canonicalise so equality and hashing are independent of the order
        # (and grouping) in which powers were supplied: x*y, y*x and x,x -> x^2
        # all normalise to the same tuple.
        object.__setattr__(self, "powers", tuple(sorted(merged.items())))

    @property
    def degree(self) -> int:
        return sum(power for _variable, power in self.powers)

    def variables(self) -> set[str]:
        return {variable for variable, _power in self.powers}

    def multiply(self, other: "Monomial") -> "Monomial":
        counts = Counter(dict(self.powers))
        counts.update(dict(other.powers))
        return Monomial(tuple(sorted(counts.items())))

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        parts = []
        for variable, power in self.powers:
            parts.append(variable if power == 1 else f"{variable}^{power}")
        return "*".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Monomial({self})"


class Polynomial:
    """An element of ``N[X]``: a mapping from monomials to positive coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None) -> None:
        cleaned: dict[Monomial, int] = {}
        for monomial, coefficient in (terms or {}).items():
            if coefficient < 0:
                raise ProvenanceError(
                    f"polynomial coefficients must be natural numbers, got {coefficient}"
                )
            if coefficient:
                cleaned[monomial] = coefficient
        self._terms = cleaned

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial({})

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial({Monomial.unit(): 1})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial({Monomial.from_variables([name]): 1})

    @staticmethod
    def constant(value: int) -> "Polynomial":
        if value < 0:
            raise ProvenanceError("constants in N[X] must be natural numbers")
        if value == 0:
            return Polynomial.zero()
        return Polynomial({Monomial.unit(): value})

    # -- inspection --------------------------------------------------------
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def coefficient(self, monomial: Monomial) -> int:
        return self._terms.get(monomial, 0)

    def variables(self) -> set[str]:
        found: set[str] = set()
        for monomial in self._terms:
            found.update(monomial.variables())
        return found

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {Monomial.unit(): 1}

    @property
    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(monomial.degree for monomial in self._terms)

    def monomial_count(self) -> int:
        return len(self._terms)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        result = dict(self._terms)
        for monomial, coefficient in other._terms.items():
            result[monomial] = result.get(monomial, 0) + coefficient
        return Polynomial(result)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        result: dict[Monomial, int] = {}
        for left_monomial, left_coefficient in self._terms.items():
            for right_monomial, right_coefficient in other._terms.items():
                product = left_monomial.multiply(right_monomial)
                result[product] = (
                    result.get(product, 0) + left_coefficient * right_coefficient
                )
        return Polynomial(result)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, semiring, assignment: Mapping[str, object]):
        """Evaluate the polynomial under a variable assignment into ``semiring``.

        Every variable occurring in the polynomial must be assigned; the
        result is the image of the polynomial under the unique homomorphism
        extending the assignment (the universality property of ``N[X]``).
        """
        missing = self.variables() - set(assignment)
        if missing:
            raise ProvenanceError(
                "cannot evaluate polynomial: unassigned variables "
                + ", ".join(sorted(missing))
            )
        total = semiring.zero()
        for monomial, coefficient in self._terms.items():
            term_value = semiring.one()
            for variable, power in monomial.powers:
                value = assignment[variable]
                for _ in range(power):
                    term_value = semiring.times(term_value, value)
            summed = semiring.zero()
            for _ in range(coefficient):
                summed = semiring.plus(summed, term_value)
            total = semiring.plus(total, summed)
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for monomial, coefficient in sorted(
            self._terms.items(), key=lambda item: str(item[0])
        ):
            if str(monomial) == "1":
                parts.append(str(coefficient))
            elif coefficient == 1:
                parts.append(str(monomial))
            else:
                parts.append(f"{coefficient}*{monomial}")
        return " + ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polynomial({self})"
