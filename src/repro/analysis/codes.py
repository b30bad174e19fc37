"""Stable diagnostic codes for the CDSS static analyzer.

Every diagnostic produced by :mod:`repro.analysis` — and every build-time
error raised by the spec/builder layer that has a lint-time twin — carries
one of these ``CDSS0xx`` codes, so `python -m repro.lint` output, golden
tests, and runtime exceptions all agree on the identity of a problem.

The module is a leaf: pure data, importable from anywhere in the library
without creating import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Severity names, ordered from most to least severe.
ERROR = "error"
WARNING = "warning"
INFO = "info"

# -- code constants ---------------------------------------------------------

#: A rule/tgd is unsafe (range-unrestricted): a head, negated-atom or
#: comparison variable is not bound by a positive body atom.
UNSAFE_RULE = "CDSS001"
#: The program cannot be stratified: negation through recursion.
UNSTRATIFIABLE = "CDSS002"
#: The skolemized mapping dependency graph is not weakly acyclic: a cycle
#: passes through an existential position, so the chase (update exchange)
#: may not terminate — labelled nulls would nest without bound.
WEAK_ACYCLICITY = "CDSS003"
#: An atom's arity disagrees with the declared relation schema (or the same
#: predicate is used with two different arities in one program).
ARITY_MISMATCH = "CDSS004"
#: An atom references a relation the peer's schema does not declare.
UNKNOWN_RELATION = "CDSS005"
#: A mapping/trust/key declaration references an undeclared peer.
UNKNOWN_PEER = "CDSS006"
#: Two mappings share the same mapping id.
DUPLICATE_MAPPING = "CDSS007"
#: A peer participates in no mapping: update exchange never reaches it.
ISOLATED_PEER = "CDSS008"
#: A mapping is redundant: a structural duplicate of another mapping, or a
#: self-identity copy of a peer onto itself.
REDUNDANT_MAPPING = "CDSS009"
#: A trust row can never influence reconciliation: it repeats the effective
#: default priority, or assigns a priority to the owning peer itself (own
#: updates are always fully trusted).
SHADOWED_TRUST = "CDSS010"
#: A trust row assigns positive priority to a peer whose updates can never
#: reach the owner (no mapping path), so it never matches an incoming update.
UNSATISFIABLE_TRUST = "CDSS011"
#: Two peers exchange updates in both directions but each fully distrusts
#: the other (priority 0 both ways): every exchanged update is rejected,
#: which livelocks reconciliation between them.
MUTUAL_DISTRUST = "CDSS012"
# CDSS013 is retired (a rule the removed SQL execution backend could not
# compile); the number is never reused.
#: The spec document itself is malformed: unparsable clause, unknown
#: directive, bad key/store/sync/observe declaration.
MALFORMED_SPEC = "CDSS014"


@dataclass(frozen=True)
class CodeInfo:
    """Metadata for one diagnostic code."""

    code: str
    severity: str
    title: str
    description: str


#: Registry of every diagnostic code, keyed by code string.
REGISTRY: Dict[str, CodeInfo] = {
    info.code: info
    for info in (
        CodeInfo(
            UNSAFE_RULE,
            ERROR,
            "unsafe rule",
            "A head, negated-atom or comparison variable is not bound by a "
            "positive body atom (range restriction).",
        ),
        CodeInfo(
            UNSTRATIFIABLE,
            ERROR,
            "unstratifiable program",
            "Negation occurs inside a recursive cycle; no stratification "
            "exists and fixpoint semantics are undefined.",
        ),
        CodeInfo(
            WEAK_ACYCLICITY,
            ERROR,
            "weak-acyclicity violation",
            "The skolemized mapping dependency graph has a cycle through an "
            "existential position; update exchange (the chase) may not "
            "terminate.",
        ),
        CodeInfo(
            ARITY_MISMATCH,
            ERROR,
            "arity mismatch",
            "An atom's arity disagrees with the relation schema or with "
            "other uses of the same predicate.",
        ),
        CodeInfo(
            UNKNOWN_RELATION,
            ERROR,
            "unknown relation",
            "An atom or declaration references a relation the peer schema "
            "does not declare.",
        ),
        CodeInfo(
            UNKNOWN_PEER,
            ERROR,
            "unknown peer",
            "A mapping, trust row or key declaration references an "
            "undeclared peer.",
        ),
        CodeInfo(
            DUPLICATE_MAPPING,
            ERROR,
            "duplicate mapping id",
            "Two mappings share the same id; provenance and sync reports "
            "would be ambiguous.",
        ),
        CodeInfo(
            ISOLATED_PEER,
            WARNING,
            "isolated peer",
            "The peer is source or target of no mapping; update exchange "
            "never moves data to or from it.",
        ),
        CodeInfo(
            REDUNDANT_MAPPING,
            WARNING,
            "redundant mapping",
            "The mapping duplicates another mapping or copies a peer onto "
            "itself; it adds work but no new facts.",
        ),
        CodeInfo(
            SHADOWED_TRUST,
            WARNING,
            "shadowed trust row",
            "The trust row repeats the effective default priority or "
            "targets the owning peer (own updates are always trusted); it "
            "can never change a reconciliation outcome.",
        ),
        CodeInfo(
            UNSATISFIABLE_TRUST,
            WARNING,
            "unsatisfiable trust row",
            "The trust row grants positive priority to a peer whose "
            "updates cannot reach the owner through any mapping path.",
        ),
        CodeInfo(
            MUTUAL_DISTRUST,
            WARNING,
            "mutual distrust cycle",
            "Two peers exchange updates bidirectionally while assigning "
            "each other priority 0; every exchanged update is rejected.",
        ),
        CodeInfo(
            MALFORMED_SPEC,
            ERROR,
            "malformed spec",
            "The spec document is structurally invalid: unparsable clause, "
            "unknown directive, or a bad key/store/sync/observe "
            "declaration.",
        ),
    )
}


def severity_of(code: str) -> str:
    """Default severity for ``code`` (``error`` when the code is unknown)."""
    info = REGISTRY.get(code)
    return info.severity if info is not None else ERROR


def title_of(code: str) -> str:
    """Short human title for ``code``."""
    info = REGISTRY.get(code)
    return info.title if info is not None else "unknown diagnostic"
