"""Static analyses over whole CDSS network specs.

:func:`analyze_network_spec` accepts anything
:func:`repro.api.spec.parse_network_spec` accepts (text, dict, or a
:class:`~repro.api.spec.NetworkSpec`) and returns a
:class:`~repro.analysis.diagnostics.DiagnosticReport` covering:

* structural validity — the same checks ``NetworkSpec.validate()`` enforces,
  but collected instead of raised (``CDSS004``–``CDSS007``, ``CDSS014``),
* chase termination — weak acyclicity of the skolemized mapping dependency
  graph (``CDSS003``),
* network shape — isolated peers and redundant mappings (``CDSS008``,
  ``CDSS009``),
* trust-policy lints — shadowed rows, unsatisfiable rows, mutual-distrust
  cycles (``CDSS010``–``CDSS012``).

:func:`analyze_system` runs the same analyses against a live
:class:`~repro.core.system.CDSS` (backing ``cdss.analyze()``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..core.mapping import Mapping
from ..errors import MappingError, ReproError, SpecError
from . import codes
from .chase import weak_acyclicity_violations
from .diagnostics import DiagnosticReport, message_of
from .graphs import reachable_from

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.spec import NetworkSpec
    from ..errors import SourceSpan


def analyze_network_spec(
    source: object, *, source_name: Optional[str] = None
) -> DiagnosticReport:
    """Analyze a network spec (text, dict, or :class:`NetworkSpec`)."""
    from ..api.spec import NetworkSpec, parse_network_spec

    report = DiagnosticReport()
    if isinstance(source, NetworkSpec):
        spec = source
    else:
        try:
            spec = parse_network_spec(source, validate=False)
        except ReproError as error:
            report.add(
                getattr(error, "code", None) or codes.MALFORMED_SPEC,
                message_of(error),
                span=getattr(error, "span", None),
            )
            return _finish(report, source_name)

    _check_structure(spec, report)
    _check_chase_termination(spec, report)
    _check_topology(spec, report)
    _check_trust(spec, report)
    return _finish(report.sort(), source_name)


def _finish(report: DiagnosticReport, source_name: Optional[str]) -> DiagnosticReport:
    if source_name is not None:
        return report.with_source(source_name)
    return report


def _mapping_span(spec: "NetworkSpec", mapping_id: str) -> "Optional[SourceSpan]":
    for mapping in spec.mappings:
        if mapping.mapping_id == mapping_id:
            return mapping.span
    return None


def _check_structure(spec: "NetworkSpec", report: DiagnosticReport) -> None:
    """The ``NetworkSpec.validate()`` checks, collected as diagnostics."""
    from ..api.spec import TRUST_DEFAULT

    if not spec.peers:
        report.add(codes.MALFORMED_SPEC, "a network spec needs at least one peer")
    for error in spec.section_problems():
        report.add(error.code or codes.MALFORMED_SPEC, message_of(error), span=error.span)

    schemas: Dict[str, object] = {}
    for peer in spec.peers.values():
        if not peer.relations:
            report.add(
                codes.MALFORMED_SPEC,
                f"peer {peer.name!r} declares no relations",
                span=peer.span_of("peer"),
                subject=peer.name,
            )
            continue
        for relation in peer.keys:
            if relation not in peer.relations:
                report.add(
                    codes.UNKNOWN_RELATION,
                    f"peer {peer.name!r} declares a key for unknown relation "
                    f"{relation!r}",
                    span=peer.span_of(f"key:{relation}"),
                    subject=peer.name,
                )
        for trusted in peer.trust:
            if trusted != TRUST_DEFAULT and trusted not in spec.peers:
                report.add(
                    codes.UNKNOWN_PEER,
                    f"peer {peer.name!r} declares trust in unknown peer {trusted!r}",
                    span=peer.span_of(f"trust:{trusted}"),
                    subject=peer.name,
                )
        try:
            schemas[peer.name] = peer.schema()
        except ReproError as error:
            report.add(
                getattr(error, "code", None) or codes.MALFORMED_SPEC,
                f"peer {peer.name!r} has an invalid schema: {message_of(error)}",
                span=peer.span_of("peer"),
                subject=peer.name,
            )

    seen_ids: Set[str] = set()
    for mapping in spec.mappings:
        if mapping.mapping_id in seen_ids:
            report.add(
                codes.DUPLICATE_MAPPING,
                f"duplicate mapping id {mapping.mapping_id!r}",
                span=mapping.span,
                subject=mapping.mapping_id,
            )
        seen_ids.add(mapping.mapping_id)
        resolved = True
        for role, peer_name in (
            ("source", mapping.source_peer),
            ("target", mapping.target_peer),
        ):
            if peer_name not in spec.peers:
                report.add(
                    codes.UNKNOWN_PEER,
                    f"mapping {mapping.mapping_id!r} references unknown {role} "
                    f"peer {peer_name!r}",
                    span=mapping.span,
                    subject=mapping.mapping_id,
                )
                resolved = False
        if not resolved:
            continue
        source_schema = schemas.get(mapping.source_peer)
        target_schema = schemas.get(mapping.target_peer)
        if source_schema is None or target_schema is None:
            continue
        try:
            mapping.validate_against(source_schema, target_schema)
        except MappingError as error:
            report.add(
                getattr(error, "code", None) or codes.MALFORMED_SPEC,
                message_of(error),
                span=getattr(error, "span", None) or mapping.span,
                subject=mapping.mapping_id,
            )


def _check_chase_termination(spec: "NetworkSpec", report: DiagnosticReport) -> None:
    """Weak acyclicity of the skolemized mapping dependency graph."""
    for violation in weak_acyclicity_violations(spec.mappings):
        report.add(
            codes.WEAK_ACYCLICITY,
            violation.describe(),
            span=_mapping_span(spec, violation.edge.mapping_id),
            subject=violation.edge.mapping_id,
        )


def _peer_digraph(mappings: List[Mapping]) -> Dict[str, List[str]]:
    adjacency: Dict[str, List[str]] = {}
    for mapping in mappings:
        successors = adjacency.setdefault(mapping.source_peer, [])
        if mapping.target_peer not in successors:
            successors.append(mapping.target_peer)
    return adjacency


def _check_topology(spec: "NetworkSpec", report: DiagnosticReport) -> None:
    """Isolated peers (CDSS008) and redundant mappings (CDSS009)."""
    participants: Set[str] = set()
    for mapping in spec.mappings:
        participants.add(mapping.source_peer)
        participants.add(mapping.target_peer)
    if len(spec.peers) > 1:
        for peer in spec.peers.values():
            if peer.name not in participants:
                report.add(
                    codes.ISOLATED_PEER,
                    f"peer {peer.name!r} is source or target of no mapping; "
                    "update exchange never reaches it",
                    span=peer.span_of("peer"),
                    subject=peer.name,
                )

    seen_shapes: Dict[Tuple, str] = {}
    for mapping in spec.mappings:
        if mapping.source_peer == mapping.target_peer and mapping.is_identity:
            report.add(
                codes.REDUNDANT_MAPPING,
                f"mapping {mapping.mapping_id!r} copies peer "
                f"{mapping.source_peer!r} onto itself; it derives nothing new",
                span=mapping.span,
                subject=mapping.mapping_id,
            )
            continue
        shape = (mapping.source_peer, mapping.target_peer, mapping.body, mapping.heads)
        first = seen_shapes.get(shape)
        if first is not None:
            report.add(
                codes.REDUNDANT_MAPPING,
                f"mapping {mapping.mapping_id!r} duplicates mapping {first!r} "
                "(same source, target, body and heads)",
                span=mapping.span,
                subject=mapping.mapping_id,
            )
        else:
            seen_shapes[shape] = mapping.mapping_id


def _check_trust(spec: "NetworkSpec", report: DiagnosticReport) -> None:
    """Shadowed (CDSS010), unsatisfiable (CDSS011) and mutually-distrusting
    (CDSS012) trust declarations."""
    from ..api.spec import TRUST_DEFAULT

    adjacency = _peer_digraph(spec.mappings)
    edges: Set[Tuple[str, str]] = {
        (mapping.source_peer, mapping.target_peer) for mapping in spec.mappings
    }

    def effective(owner: object, trusted: str) -> int:
        return owner.trust.get(trusted, owner.trust.get(TRUST_DEFAULT, 1))

    for peer in spec.peers.values():
        default = peer.trust.get(TRUST_DEFAULT, 1)
        for trusted, priority in peer.trust.items():
            if trusted == TRUST_DEFAULT:
                continue
            if trusted == peer.name:
                report.add(
                    codes.SHADOWED_TRUST,
                    f"peer {peer.name!r} declares trust in itself; own updates "
                    "are always fully trusted, so the row never applies",
                    span=peer.span_of(f"trust:{trusted}"),
                    subject=peer.name,
                )
                continue
            if priority == default:
                report.add(
                    codes.SHADOWED_TRUST,
                    f"peer {peer.name!r} trusts {trusted!r} at priority "
                    f"{priority}, which equals its default priority; the row "
                    "never changes a reconciliation outcome",
                    span=peer.span_of(f"trust:{trusted}"),
                    subject=peer.name,
                )
                continue
            if (
                priority > 0
                and trusted in spec.peers
                and peer.name != trusted
                and peer.name not in reachable_from(trusted, adjacency)
            ):
                report.add(
                    codes.UNSATISFIABLE_TRUST,
                    f"peer {peer.name!r} trusts {trusted!r} at priority "
                    f"{priority}, but no mapping path carries updates from "
                    f"{trusted!r} to {peer.name!r}; the row never matches",
                    span=peer.span_of(f"trust:{trusted}"),
                    subject=peer.name,
                )

    reported_pairs: Set[Tuple[str, str]] = set()
    for left, right in sorted(edges):
        if left == right or (right, left) not in edges:
            continue
        pair = tuple(sorted((left, right)))
        if pair in reported_pairs:
            continue
        reported_pairs.add(pair)
        left_spec = spec.peers.get(left)
        right_spec = spec.peers.get(right)
        if left_spec is None or right_spec is None:
            continue
        if effective(left_spec, right) == 0 and effective(right_spec, left) == 0:
            report.add(
                codes.MUTUAL_DISTRUST,
                f"peers {pair[0]!r} and {pair[1]!r} exchange updates in both "
                "directions but each assigns the other priority 0; every "
                "exchanged update is rejected on arrival",
                span=left_spec.span_of(f"trust:{right}"),
                subject=f"{pair[0]}<->{pair[1]}",
            )


def analyze_system(cdss: object) -> DiagnosticReport:
    """Analyze a live :class:`~repro.core.system.CDSS` (``cdss.analyze()``).

    When the system's trust policies are table-based the full network
    analysis runs on the extracted spec; systems carrying Python trust
    predicates fall back to the program-level analyses (safety,
    stratification, arity) over the compiled exchange program.
    """
    from ..api.spec import spec_of

    try:
        spec = spec_of(cdss)
    except SpecError:
        spec = None
    if spec is not None:
        return analyze_network_spec(spec)

    from .program import analyze_program

    return analyze_program(cdss.engine.program)
