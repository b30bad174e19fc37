"""Commutative semirings used as provenance annotation domains.

A commutative semiring ``(K, +, *, 0, 1)`` satisfies:

* ``(K, +, 0)`` is a commutative monoid,
* ``(K, *, 1)`` is a commutative monoid,
* ``*`` distributes over ``+``, and
* ``0`` is absorbing for ``*``.

The PODS 2007 paper shows that annotating base tuples with semiring values
and combining them with ``*`` for joint use (joins) and ``+`` for alternative
use (unions/projections) captures, as special cases: set semantics (boolean
semiring), bag semantics (counting semiring), probabilistic event lineage,
minimum-cost/tropical reasoning, access-control/security clearances,
why-provenance and full provenance polynomials.  ORCHESTRA's trust conditions
are evaluated by mapping provenance into one of these semirings.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Generic, Iterable, Protocol, TypeVar

from ..errors import SemiringError

K = TypeVar("K")


class Semiring(Protocol[K]):
    """The protocol every annotation domain implements."""

    name: str

    def zero(self) -> K:
        """The additive identity (annotation of absent tuples)."""
        ...

    def one(self) -> K:
        """The multiplicative identity (annotation of unconditionally present tuples)."""
        ...

    def plus(self, left: K, right: K) -> K:
        """Combine annotations of alternative derivations."""
        ...

    def times(self, left: K, right: K) -> K:
        """Combine annotations of jointly used tuples."""
        ...

    def is_zero(self, value: K) -> bool:
        """True when ``value`` equals the additive identity."""
        ...


class _BaseSemiring(Generic[K]):
    """Shared helpers for the concrete semirings below."""

    name = "semiring"

    def is_zero(self, value: K) -> bool:
        return value == self.zero()

    def sum(self, values: Iterable[K]) -> K:
        result = self.zero()
        for value in values:
            result = self.plus(result, value)
        return result

    def product(self, values: Iterable[K]) -> K:
        result = self.one()
        for value in values:
            result = self.times(result, value)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class BooleanSemiring(_BaseSemiring[bool]):
    """Set semantics: a tuple is either present (True) or absent (False)."""

    name = "boolean"

    def zero(self) -> bool:
        return False

    def one(self) -> bool:
        return True

    def plus(self, left: bool, right: bool) -> bool:
        return bool(left or right)

    def times(self, left: bool, right: bool) -> bool:
        return bool(left and right)


class CountingSemiring(_BaseSemiring[int]):
    """Bag semantics: annotations count the number of derivations."""

    name = "counting"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def plus(self, left: int, right: int) -> int:
        return left + right

    def times(self, left: int, right: int) -> int:
        return left * right


class TropicalSemiring(_BaseSemiring[float]):
    """Minimum-cost semantics: ``+`` is min, ``*`` is addition of costs.

    Useful for "cheapest derivation" trust policies where each source peer is
    assigned a cost and a tuple's trustworthiness is the cost of its cheapest
    derivation.
    """

    name = "tropical"

    def zero(self) -> float:
        return float("inf")

    def one(self) -> float:
        return 0.0

    def plus(self, left: float, right: float) -> float:
        return min(left, right)

    def times(self, left: float, right: float) -> float:
        return left + right


class FuzzySemiring(_BaseSemiring[float]):
    """Fuzzy/confidence semantics over [0, 1]: ``+`` is max, ``*`` is min."""

    name = "fuzzy"

    def zero(self) -> float:
        return 0.0

    def one(self) -> float:
        return 1.0

    def plus(self, left: float, right: float) -> float:
        self._check(left)
        self._check(right)
        return max(left, right)

    def times(self, left: float, right: float) -> float:
        self._check(left)
        self._check(right)
        return min(left, right)

    @staticmethod
    def _check(value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise SemiringError(f"fuzzy semiring values must lie in [0, 1], got {value}")


class TrustLevel(IntEnum):
    """Clearance levels of the access-control (security) semiring.

    Smaller is more permissive.  ``ALWAYS`` plays the role of 1 (publicly
    derivable) and ``NEVER`` the role of 0 (not derivable at any clearance).
    """

    ALWAYS = 0
    PUBLIC = 1
    CONFIDENTIAL = 2
    SECRET = 3
    TOP_SECRET = 4
    NEVER = 5


class SecuritySemiring(_BaseSemiring[TrustLevel]):
    """Access-control semantics: ``+`` is min (most permissive alternative),
    ``*`` is max (most restrictive requirement)."""

    name = "security"

    def zero(self) -> TrustLevel:
        return TrustLevel.NEVER

    def one(self) -> TrustLevel:
        return TrustLevel.ALWAYS

    def plus(self, left: TrustLevel, right: TrustLevel) -> TrustLevel:
        return TrustLevel(min(int(left), int(right)))

    def times(self, left: TrustLevel, right: TrustLevel) -> TrustLevel:
        return TrustLevel(max(int(left), int(right)))


class LineageSemiring(_BaseSemiring):
    """Lineage: the set of all base tuples contributing to a derivation.

    Following the PODS'07 definition, the domain is ``P(X) ∪ {⊥}`` where the
    bottom element ``⊥`` (represented as ``None``) annotates absent tuples,
    the empty set is the multiplicative identity, and both ``+`` and ``*``
    otherwise take unions.
    """

    name = "lineage"

    def zero(self) -> None:
        return None

    def one(self) -> frozenset:
        return frozenset()

    def plus(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return frozenset(left) | frozenset(right)

    def times(self, left, right):
        if left is None or right is None:
            return None
        return frozenset(left) | frozenset(right)

    def is_zero(self, value) -> bool:
        return value is None


class WhySemiring(_BaseSemiring[frozenset]):
    """Why-provenance: sets of witness sets (each witness is a set of base tuples)."""

    name = "why"

    def zero(self) -> frozenset:
        return frozenset()

    def one(self) -> frozenset:
        return frozenset({frozenset()})

    def plus(self, left: frozenset, right: frozenset) -> frozenset:
        return frozenset(left) | frozenset(right)

    def times(self, left: frozenset, right: frozenset) -> frozenset:
        return frozenset(
            frozenset(a) | frozenset(b) for a in left for b in right
        )


class PolynomialSemiring(_BaseSemiring["Polynomial"]):
    """The semiring of provenance polynomials ``N[X]`` (the universal one).

    Implemented in :mod:`repro.provenance.polynomial`; this wrapper lets
    polynomial-valued annotations be used anywhere a semiring is expected.
    """

    name = "polynomial"

    def zero(self):
        from .polynomial import Polynomial

        return Polynomial.zero()

    def one(self):
        from .polynomial import Polynomial

        return Polynomial.one()

    def plus(self, left, right):
        return left + right

    def times(self, left, right):
        return left * right

    def is_zero(self, value) -> bool:
        return value.is_zero()
