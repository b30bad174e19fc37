"""Static analyses over datalog programs.

Works on :class:`~repro.datalog.ast.Program` objects (typically parsed with
``validate=False`` so every problem is reported, not just the first):

* rule safety / range restriction (``CDSS001``),
* stratifiability — negation through recursion (``CDSS002``), with the
  witnessing predicate cycle named instead of a bare boolean,
* arity consistency of each predicate across the program (``CDSS004``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..datalog.ast import Atom, Program, Rule
from ..errors import SourceSpan, UnsafeRuleError
from . import codes
from .diagnostics import DiagnosticReport
from .graphs import shortest_path_within, strongly_connected_components


def _rule_subject(rule: Rule) -> str:
    return rule.label or rule.head.predicate


def check_safety(program: Program, report: DiagnosticReport) -> None:
    """Report every unsafe (range-unrestricted) rule as ``CDSS001``."""
    for rule in program.rules:
        try:
            rule.validate()
        except UnsafeRuleError as unsafe:
            report.add(
                codes.UNSAFE_RULE,
                str(unsafe),
                span=unsafe.span or rule.span,
                subject=_rule_subject(rule),
            )


def check_stratification(program: Program, report: DiagnosticReport) -> None:
    """Report negation-through-recursion cycles as ``CDSS002``.

    This reimplements the cycle detection of
    :func:`repro.datalog.stratification.stratum_numbers` but keeps *where*:
    each diagnostic names the offending negated atom, its rule, and the
    predicate cycle the negation closes.
    """
    adjacency: Dict[str, List[str]] = {}
    nodes: List[str] = []
    for rule in program.rules:
        for predicate in (rule.head.predicate, *rule.body_predicates()):
            if predicate not in adjacency:
                adjacency[predicate] = []
                nodes.append(predicate)
    for head, body, _negated in program.dependency_edges():
        if body not in adjacency[head]:
            adjacency[head].append(body)
    component = strongly_connected_components(nodes, adjacency)

    for rule in program.rules:
        head = rule.head.predicate
        for atom in rule.negative_body:
            if component.get(head) != component.get(atom.predicate):
                continue
            cycle = shortest_path_within(atom.predicate, head, adjacency, component)
            path = " -> ".join((head, *cycle, head))
            report.add(
                codes.UNSTRATIFIABLE,
                f"negation through recursion: rule for {head!r} negates "
                f"{atom.predicate!r} inside the cycle {path}; the program "
                "cannot be stratified",
                span=atom.span or rule.span,
                subject=_rule_subject(rule),
            )


def check_arities(program: Program, report: DiagnosticReport) -> None:
    """Report predicates used with inconsistent arities as ``CDSS004``."""
    seen: Dict[str, Tuple[int, Optional[SourceSpan]]] = {}

    def visit(atom: Atom, rule: Rule) -> None:
        known = seen.get(atom.predicate)
        if known is None:
            seen[atom.predicate] = (atom.arity, atom.span or rule.span)
            return
        arity, first_span = known
        if atom.arity != arity:
            first = f" (first used with {arity} at line {first_span.line})" if first_span else f" (first used with {arity})"
            report.add(
                codes.ARITY_MISMATCH,
                f"predicate {atom.predicate!r} used with arity {atom.arity}, "
                f"but elsewhere with arity {arity}{first}",
                span=atom.span or rule.span,
                subject=atom.predicate,
            )

    for rule in program.rules:
        visit(rule.head, rule)
        for literal in rule.body:
            if isinstance(literal, Atom):
                visit(literal, rule)


def analyze_program(
    program: Program,
    *,
    source: Optional[str] = None,
) -> DiagnosticReport:
    """Run every program-level analysis and return the combined report."""
    report = DiagnosticReport()
    check_safety(program, report)
    check_stratification(program, report)
    check_arities(program, report)
    report.sort()
    if source is not None:
        report = report.with_source(source)
    return report
