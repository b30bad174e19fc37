"""Diagnostics framework: codes registry, rendering, reports, sorting."""

from __future__ import annotations

import pytest

from repro.analysis import codes
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, message_of
from repro.errors import SourceSpan, SpecError


def test_registry_covers_thirteen_codes_with_severities() -> None:
    assert len(codes.REGISTRY) == 13
    # CDSS013 is retired: later codes keep their numbers, it is never reused.
    assert "CDSS013" not in codes.REGISTRY
    assert codes.MALFORMED_SPEC == "CDSS014"
    assert codes.severity_of(codes.UNSAFE_RULE) == codes.ERROR
    assert codes.severity_of(codes.ISOLATED_PEER) == codes.WARNING
    for code, info in codes.REGISTRY.items():
        assert info.code == code
        assert info.severity in (codes.ERROR, codes.WARNING, codes.INFO)
        assert info.title


def test_diagnostic_defaults_severity_from_registry() -> None:
    diagnostic = Diagnostic(codes.WEAK_ACYCLICITY, "boom")
    assert diagnostic.severity == codes.ERROR
    assert diagnostic.is_error


def test_diagnostic_render_includes_location_code_and_severity() -> None:
    diagnostic = Diagnostic(
        codes.UNSAFE_RULE,
        "variable y is unbound",
        span=SourceSpan(7, 3),
        source="net.spec",
    )
    assert diagnostic.render() == "net.spec:7:3: error CDSS001: variable y is unbound"


def test_diagnostic_to_dict_round_trips_span_fields() -> None:
    span = SourceSpan(2, 5, end_line=2, end_column=9)
    payload = Diagnostic(codes.SHADOWED_TRUST, "m", span=span, subject="A").to_dict()
    assert payload["code"] == codes.SHADOWED_TRUST
    assert payload["severity"] == codes.WARNING
    assert (payload["line"], payload["column"]) == (2, 5)
    assert (payload["end_line"], payload["end_column"]) == (2, 9)
    assert payload["subject"] == "A"


def test_report_sorts_by_location_then_severity() -> None:
    report = DiagnosticReport()
    report.add(codes.ISOLATED_PEER, "later", severity=codes.INFO, span=SourceSpan(9, 1))
    report.add(codes.UNSAFE_RULE, "earlier", span=SourceSpan(2, 1))
    report.add(codes.ISOLATED_PEER, "same line warning", span=SourceSpan(2, 1))
    report.sort()
    assert [d.message for d in report] == ["earlier", "same line warning", "later"]


def test_report_ok_and_filters() -> None:
    report = DiagnosticReport()
    report.add(codes.ISOLATED_PEER, "w")
    assert report.ok
    report.add(codes.WEAK_ACYCLICITY, "e")
    assert not report.ok
    assert [d.code for d in report.errors()] == [codes.WEAK_ACYCLICITY]
    assert [d.code for d in report.warnings()] == [codes.ISOLATED_PEER]
    assert report.codes() == sorted([codes.WEAK_ACYCLICITY, codes.ISOLATED_PEER])


def test_report_raise_if_errors_carries_first_error_code() -> None:
    report = DiagnosticReport()
    report.add(codes.WEAK_ACYCLICITY, "chase may diverge", span=SourceSpan(4, 1))
    with pytest.raises(SpecError, match="chase may diverge") as info:
        report.raise_if_errors("test network")
    assert info.value.code == codes.WEAK_ACYCLICITY
    assert info.value.span is not None and info.value.span.line == 4


def test_report_raise_if_errors_is_noop_without_errors() -> None:
    report = DiagnosticReport()
    report.add(codes.ISOLATED_PEER, "info only", severity=codes.INFO)
    report.raise_if_errors("test network")


def test_with_source_fills_only_missing_sources() -> None:
    report = DiagnosticReport()
    report.add(codes.UNSAFE_RULE, "a")
    report.add(codes.UNSAFE_RULE, "b", source="explicit.dl")
    filled = report.with_source("fallback.dl")
    assert [d.source for d in filled] == ["fallback.dl", "explicit.dl"]


def test_message_of_strips_code_prefix() -> None:
    error = SpecError("bad section", code=codes.MALFORMED_SPEC)
    assert str(error).startswith("[CDSS014] ")
    assert message_of(error) == "bad section"
    assert message_of(ValueError("plain")) == "plain"
