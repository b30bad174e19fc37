"""Program-level analyses: safety, stratification, arities, SQL fallback."""

from __future__ import annotations

from repro.analysis import analyze_program
from repro.analysis import codes
from repro.datalog.parser import parse_program


def analyze(text: str):
    return analyze_program(parse_program(text, validate=False))


def test_clean_program_produces_no_diagnostics() -> None:
    report = analyze(
        """
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        """
    )
    assert report.ok
    assert len(report) == 0


def test_unsafe_rule_reports_cdss001_with_rule_span() -> None:
    report = analyze("p(x, y) :- q(x).")
    [diagnostic] = report.by_code(codes.UNSAFE_RULE)
    assert diagnostic.span is not None and diagnostic.span.line == 1
    assert "y" in diagnostic.message


def test_unstratifiable_negation_reports_cdss002_naming_the_cycle() -> None:
    report = analyze("win(x) :- move(x, y), not win(y).")
    [diagnostic] = report.by_code(codes.UNSTRATIFIABLE)
    assert "win -> win" in diagnostic.message
    assert diagnostic.span is not None


def test_stratified_negation_is_clean() -> None:
    report = analyze(
        """
        reachable(x, y) :- edge(x, y).
        unreached(x) :- node(x), not reachable(x, x).
        """
    )
    assert not report.by_code(codes.UNSTRATIFIABLE)


def test_indirect_negation_cycle_is_reported() -> None:
    report = analyze(
        """
        p(x) :- base(x), not q(x).
        q(x) :- r(x).
        r(x) :- p(x).
        """
    )
    [diagnostic] = report.by_code(codes.UNSTRATIFIABLE)
    assert "p" in diagnostic.message and "q" in diagnostic.message


def test_arity_mismatch_reports_both_locations() -> None:
    report = analyze(
        """
        a(x) :- b(x).
        c(x, y) :- b(x, y).
        """
    )
    [diagnostic] = report.by_code(codes.ARITY_MISMATCH)
    assert diagnostic.subject == "b"
    assert "arity 2" in diagnostic.message and "arity 1" in diagnostic.message
    assert "line 2" in diagnostic.message


def test_source_is_attached_when_given() -> None:
    program = parse_program("p(x, y) :- q(x).", validate=False)
    report = analyze_program(program, source="rules.dl")
    assert all(diagnostic.source == "rules.dl" for diagnostic in report)
