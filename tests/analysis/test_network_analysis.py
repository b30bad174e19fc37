"""Network-level analyses: structure, topology, trust, chase, system entry."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_network_spec, analyze_system
from repro.analysis import codes
from repro.api.builder import NetworkBuilder, build_network
from repro.api.spec import SectionSpec, parse_network_spec
from repro.config import SECTIONS
from repro.errors import SpecError

TWO_PEER = """
network two-peer
peer A
  relation R(x, y)
peer B
  relation R(x, y)
mapping [AB] @B.R(x, y) :- @A.R(x, y).
mapping [BA] @A.R(x, y) :- @B.R(x, y).
"""


def codes_of(spec: str) -> list[str]:
    return [diagnostic.code for diagnostic in analyze_network_spec(spec)]


def test_clean_two_peer_network() -> None:
    report = analyze_network_spec(TWO_PEER)
    assert report.ok
    assert len(report) == 0


def test_unparseable_spec_is_one_cdss014() -> None:
    report = analyze_network_spec("peer A\n  relation R(x)\n  zorp\n")
    assert [d.code for d in report] == [codes.MALFORMED_SPEC]
    assert not report.ok


def test_weak_acyclicity_violation_points_at_the_mapping_line() -> None:
    spec = TWO_PEER.replace("@B.R(x, y) :- @A.R(x, y)", "@B.R(e, x) :- @A.R(x, y)")
    report = analyze_network_spec(spec)
    [violation] = report.by_code(codes.WEAK_ACYCLICITY)
    assert violation.subject == "AB"
    assert violation.span is not None and violation.span.line == 7


def test_trust_row_for_self_and_for_default_priority_are_shadowed() -> None:
    spec = """
network shadow
peer A
  relation R(x)
  trust A 2
  trust B 1
peer B
  relation R(x)
mapping [M] @A.R(x) :- @B.R(x).
"""
    report = analyze_network_spec(spec)
    assert len(report.by_code(codes.SHADOWED_TRUST)) == 2


def test_star_trust_rows_are_never_shadowed() -> None:
    spec = """
network star
peer A
  relation R(x)
  trust * 0
  trust B 2
peer B
  relation R(x)
mapping [M] @A.R(x) :- @B.R(x).
"""
    report = analyze_network_spec(spec)
    assert not report.by_code(codes.SHADOWED_TRUST)


def test_unsatisfiable_trust_requires_no_path_to_owner() -> None:
    spec = """
network unsat
peer A
  relation R(x)
  trust C 2
peer B
  relation R(x)
peer C
  relation R(x)
mapping [CB] @B.R(x) :- @C.R(x).
mapping [BA] @A.R(x) :- @B.R(x).
"""
    # C reaches A through B, so the row is satisfiable.
    assert not analyze_network_spec(spec).by_code(codes.UNSATISFIABLE_TRUST)
    broken = spec.replace("mapping [BA] @A.R(x) :- @B.R(x).", "")
    assert analyze_network_spec(broken).by_code(codes.UNSATISFIABLE_TRUST)


def test_mutual_distrust_reported_once_per_pair() -> None:
    spec = """
network md
peer A
  relation R(x)
  trust B 0
peer B
  relation R(x)
  trust A 0
mapping [F] @B.R(x) :- @A.R(x).
mapping [G] @A.R(x) :- @B.R(x).
"""
    assert len(analyze_network_spec(spec).by_code(codes.MUTUAL_DISTRUST)) == 1


def test_one_directional_distrust_is_not_mutual() -> None:
    spec = """
network oneway
peer A
  relation R(x)
  trust B 0
peer B
  relation R(x)
mapping [F] @B.R(x) :- @A.R(x).
mapping [G] @A.R(x) :- @B.R(x).
"""
    assert not analyze_network_spec(spec).by_code(codes.MUTUAL_DISTRUST)


def test_isolated_peer_not_reported_for_single_peer_networks() -> None:
    spec = """
network solo
peer A
  relation R(x)
"""
    assert not analyze_network_spec(spec).by_code(codes.ISOLATED_PEER)


@pytest.mark.parametrize("section", SECTIONS)
def test_analyzer_and_validate_run_the_same_section_check(section: str) -> None:
    """A word outside a section's choice set is one CDSS014 for the analyzer
    and the error ``validate()`` raises — for ``observe`` as for the rest."""
    spec = parse_network_spec(TWO_PEER)
    spec.sections[section] = SectionSpec(section, {SECTIONS[section][0].knob: "bogus"})
    (diagnostic,) = analyze_network_spec(spec).by_code(codes.MALFORMED_SPEC)
    with pytest.raises(SpecError) as info:
        spec.validate()
    assert info.value.code == codes.MALFORMED_SPEC
    assert diagnostic.message in str(info.value)


def test_structural_errors_suppress_downstream_analyses() -> None:
    spec = """
network cascade
peer A
  relation R(x) key(zzz)
mapping [M] @A.R(x) :- @A.R(x).
"""
    report = analyze_network_spec(spec)
    assert report.by_code(codes.MALFORMED_SPEC)
    # the broken schema must not crash chase/topology/sql stages
    assert isinstance(report.render(), str)


def test_analyze_system_matches_spec_analysis(two_peer_system) -> None:
    report = analyze_system(two_peer_system)
    assert report.ok


def test_builder_analyze_and_strict_build() -> None:
    builder = NetworkBuilder("strictnet")
    builder.peer("A").relation("R", "x", "y")
    builder.peer("B").relation("R", "x", "y")
    builder.mapping("[M1] @B.R(e, x) :- @A.R(x, y).")
    builder.mapping("[M2] @A.R(x, y) :- @B.R(x, y).")
    report = builder.analyze()
    assert codes.WEAK_ACYCLICITY in [d.code for d in report]
    with pytest.raises(SpecError) as info:
        builder.build(strict=True)
    assert info.value.code == codes.WEAK_ACYCLICITY
    # the lenient path still constructs the system
    assert builder.build().name == "strictnet"


def test_build_network_strict_passes_clean_specs() -> None:
    cdss = build_network(TWO_PEER, strict=True)
    assert cdss.name == "two-peer"
    assert cdss.analyze().ok
