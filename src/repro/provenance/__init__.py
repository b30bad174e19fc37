"""Provenance semirings and the update-exchange provenance graph.

This package reproduces the algebraic machinery of the companion paper
*Provenance semirings* (Green, Karvounarakis, Tannen, PODS 2007) that
ORCHESTRA uses to record where each exchanged tuple came from and to evaluate
per-peer trust policies:

* :mod:`repro.provenance.semiring` — the semiring protocol plus the standard
  instances (boolean, counting, tropical, security/access-control, fuzzy,
  why-provenance, lineage),
* :mod:`repro.provenance.polynomial` — provenance polynomials ``N[X]``, the
  most general (universal) annotation,
* :mod:`repro.provenance.graph` — the provenance graph maintained during
  update exchange (tuples + mapping-rule derivations); evaluating it in a
  semiring under an assignment, directly on its adjacency, is the
  homomorphic image of its ``N[X]`` provenance.
"""

from .graph import DerivationNode, ProvenanceGraph, TupleNode, reference_polynomial
from .polynomial import Monomial, Polynomial
from .semiring import (
    BooleanSemiring,
    CountingSemiring,
    FuzzySemiring,
    LineageSemiring,
    PolynomialSemiring,
    SecuritySemiring,
    Semiring,
    TrustLevel,
    TropicalSemiring,
    WhySemiring,
)

__all__ = [
    "BooleanSemiring",
    "CountingSemiring",
    "DerivationNode",
    "FuzzySemiring",
    "LineageSemiring",
    "Monomial",
    "Polynomial",
    "PolynomialSemiring",
    "ProvenanceGraph",
    "SecuritySemiring",
    "Semiring",
    "TrustLevel",
    "TropicalSemiring",
    "TupleNode",
    "WhySemiring",
    "reference_polynomial",
]
