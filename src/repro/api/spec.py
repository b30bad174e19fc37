"""The declarative network specification language.

A CDSS network — peers, relations with keys, trust policies, and tgd
mappings — can be described as text, mirroring the datalog notation the
paper itself uses::

    # The two-peer quickstart network.
    network quickstart
    peer Source
      relation R(key, value) key(key)
    peer Target
      relation R(key, value) key(key)
    mapping [M_ST] @Target.R(k, v) :- @Source.R(k, v).

The format is line-oriented:

* ``network <name>`` (optional) names the network;
* ``store``, ``sync`` and ``observe`` (all optional, before the first
  peer) set system options: ``<section> <word> [<knob> <value> ...]``,
  e.g. ``store distributed shards 4 replication 2`` or ``sync gossip fanout 2
  sketch iblt``.  The sections, their knobs, values and defaults are the rows
  of :data:`repro.config.OPTIONS` (README, "System options"); a knob the
  spec leaves out defers to the :class:`~repro.config.SystemConfig` the
  spec is built over.  ``observe`` takes one or more levels (``observe trace
  metrics`` — trace implies metrics);
* ``peer <Name> [schema <SchemaName>]`` opens a peer section;
* ``relation Rel(attr, ...) [key(attr, ...)]`` declares a relation of the
  current peer; without a ``key`` clause the whole tuple is the key;
* ``trust <Peer> <priority>`` and ``trust * <priority>`` populate the
  peer's trust table (``*`` sets the default priority; 0 means distrust);
* ``mapping [Id] @Target.R(...) :- @Source.R(...), ... .`` declares a tgd
  mapping, target side first, continuing across lines until the closing
  period.  Split mappings list several head atoms; variables occurring only
  in the heads are existential and become labelled nulls;
* ``#`` or ``%`` start a comment.

:func:`parse_network_spec` turns text (or an equivalent dict) into a
:class:`NetworkSpec`; :meth:`NetworkSpec.to_text` renders it back so that
spec → CDSS → spec round-trips.  ``CDSS.from_spec`` builds a running system
from either form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping as MappingType,
    NoReturn,
    Optional,
    Sequence,
    Union,
)

from ..analysis import codes as _codes
from ..config import SECTIONS, Option, SystemConfig
from ..core.mapping import Mapping, mapping_from_tgd, mapping_to_tgd
from ..core.schema import PeerSchema
from ..core.trust import TrustPolicy
from ..errors import SourceSpan, SpecError

#: The trust-table key that sets a peer's default priority.
TRUST_DEFAULT = "*"

_PEER_RE = re.compile(r"peer\s+(?P<name>\w+)(?:\s+schema\s+(?P<schema>\w+))?\s*$")
_RELATION_RE = re.compile(
    r"relation\s+(?P<name>\w+)\s*\((?P<attrs>[^)]*)\)(?:\s*key\s*\((?P<key>[^)]*)\))?\s*$"
)
_TRUST_RE = re.compile(r"trust\s+(?P<peer>\*|\w+)\s+(?P<priority>\d+)\s*$")
_KEYWORD_RE = re.compile(r"\w*")
_WORD_RE = re.compile(r"\w+")


@dataclass
class PeerSpec:
    """Declarative description of one peer: schema shape plus trust table."""

    name: str
    schema_name: Optional[str] = None
    relations: dict[str, list[str]] = field(default_factory=dict)
    keys: dict[str, list[str]] = field(default_factory=dict)
    #: ``{peer: priority}`` plus the optional ``"*"`` default entry.
    trust: dict[str, int] = field(default_factory=dict)
    #: Source locations of the peer's declarations, when parsed from text:
    #: ``"peer"``, ``"relation:<name>"``, ``"key:<name>"``, ``"trust:<peer>"``.
    spans: dict[str, SourceSpan] = field(
        default_factory=dict, compare=False, repr=False
    )

    def span_of(self, key: str) -> Optional[SourceSpan]:
        """The recorded span for a declaration key, or the peer's own span."""
        return self.spans.get(key) or self.spans.get("peer")

    def schema(self) -> PeerSchema:
        if not self.relations:
            raise SpecError(f"peer {self.name!r} declares no relations")
        return PeerSchema.build(
            self.schema_name or self.name, self.relations, self.keys
        )

    def trust_policy(self) -> TrustPolicy:
        table = {peer: priority for peer, priority in self.trust.items() if peer != TRUST_DEFAULT}
        default = self.trust.get(TRUST_DEFAULT, 1)
        return TrustPolicy(
            owner=self.name, peer_priorities=table, default_priority=default
        )

    def to_dict(self) -> dict:
        spec: dict = {"relations": {name: list(attrs) for name, attrs in self.relations.items()}}
        if self.schema_name:
            spec["schema"] = self.schema_name
        if self.keys:
            spec["keys"] = {name: list(attrs) for name, attrs in self.keys.items()}
        if self.trust:
            spec["trust"] = dict(self.trust)
        return spec


def malformed(message: str) -> NoReturn:
    """Raise the coded error for a spec that is wrong in itself (``CDSS014``)."""
    raise SpecError(message, code=_codes.MALFORMED_SPEC)


@dataclass
class SectionSpec:
    """One system-option section of a spec (``store``, ``sync``, ...).

    ``values`` maps the knobs the spec pins to their values, the section's
    leading word under its own knob name (``{"kind": "distributed",
    "shards": 4}``).  Knobs left out defer to the
    :class:`~repro.config.SystemConfig` the spec is built over.  Which knobs
    exist and what they accept is :data:`repro.config.SECTIONS`.
    """

    name: str
    values: dict[str, Union[int, str]]

    def pinned(self) -> list[tuple[Option, Union[int, str]]]:
        """The pinned options with their values, in table order (head first)."""
        return [
            (option, self.values[option.knob])
            for option in SECTIONS[self.name]
            if option.knob in self.values
        ]

    def validate(self) -> None:
        if self.name not in SECTIONS:
            malformed(f"unknown spec section {self.name!r}; expected one of {', '.join(SECTIONS)}")
        head, *knobs = SECTIONS[self.name]
        known = [option.knob for option in knobs]
        unknown = [knob for knob in self.values if knob not in (head.knob, *known)]
        if unknown:
            malformed(
                f"unknown {self.name} knob {unknown[0]!r}; "
                f"expected one of {', '.join(known) or 'none'}"
            )
        kind = self.values.get(head.knob, head.default)
        knob_of = {option.field: option.knob for option in knobs}
        for option, value in self.pinned():
            if option.under is not None and kind != option.under:
                malformed(
                    f"{self.name} {kind} takes no {option.under} knobs, "
                    f"but {option.knob!r} is given"
                )
            problem = option.problem(value)
            if problem:
                malformed(f"{self.name} {option.knob} {problem}")
            # A bound is judged only against a sibling the spec itself pins;
            # when the sibling is unset its effective value comes from the
            # config the spec is merged over, which re-validates.
            bound_knob = knob_of.get(option.at_most or "")
            if bound_knob in self.values and value > self.values[bound_knob]:
                malformed(
                    f"{self.name} {option.knob} ({value}) cannot exceed "
                    f"{bound_knob} ({self.values[bound_knob]})"
                )

    def to_dict(self) -> Union[dict, int, str]:
        """The dict form: a mapping, or the bare word of a knob-less section."""
        if len(SECTIONS[self.name]) == 1:
            return next(iter(self.values.values()))
        return {option.knob: value for option, value in self.pinned()}

    def to_text_line(self) -> str:
        parts = [self.name]
        for option, value in self.pinned():
            parts.append(str(value) if option.head else f"{option.knob} {value}")
        return " ".join(parts)


def make_section(
    name: str,
    words: Sequence[object],
    knobs: Iterable[tuple[str, object]],
    fail: Callable[[str], NoReturn] = malformed,
) -> Optional[SectionSpec]:
    """Build a section from its leading word(s) and raw ``(knob, value)`` pairs.

    Shared by the text parser (whose ``fail`` adds the line and its span),
    the dict parser and the builder.  Only what a :class:`SectionSpec`
    cannot represent is rejected here (the rest is :meth:`SectionSpec.validate`).
    Returns ``None`` for a section that says "absent" (the lowest level of
    a ``levels`` option, e.g. ``observe off``).
    """
    head, *options = SECTIONS[name]
    words = [str(word) for word in words]
    if not head.levels:
        if len(words) != 1:
            fail(f"the {name} section takes exactly one {head.knob}, got {words}")
        word = words[0]
    else:
        unknown = [level for level in words if level not in head.choices]
        if unknown:
            fail(
                f"{name} {head.knob} must be one of {', '.join(head.choices)}; "
                f"got {unknown[0]!r}"
            )
        lowest = head.choices[0]
        if lowest in words and len(set(words)) > 1:
            fail(f"'{name} {lowest}' cannot be combined with other {head.knob}s")
        word = max(words, key=head.choices.index, default=lowest)
        if word == lowest:
            return None
    values: dict[str, Union[int, str]] = {head.knob: word}
    integer_knobs = {option.knob for option in options if option.floor is not None}
    for knob, raw in knobs:
        if knob in values:
            fail(f"{name} knob {knob!r} is given twice")
        try:
            values[knob] = int(raw) if knob in integer_knobs else str(raw)  # type: ignore
        except (TypeError, ValueError):
            values[knob] = str(raw)  # validate() reports it, with the other domain errors
    return SectionSpec(name, values)


@dataclass
class NetworkSpec:
    """A complete declarative description of a CDSS network."""

    name: str = "network"
    peers: dict[str, PeerSpec] = field(default_factory=dict)
    mappings: list[Mapping] = field(default_factory=list)
    #: The system-option sections the spec declares, by section name.
    sections: dict[str, SectionSpec] = field(default_factory=dict)
    #: Source locations of top-level declarations, when parsed from text:
    #: ``"network"`` and the section names.
    spans: dict[str, SourceSpan] = field(
        default_factory=dict, compare=False, repr=False
    )

    def word(self, section: str) -> Optional[str]:
        """The leading word of a declared section (``"gossip"`` for ``sync
        gossip``), ``None`` when the spec leaves the section to the config."""
        declared = self.sections.get(section)
        return None if declared is None else str(declared.values[SECTIONS[section][0].knob])

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        """Cross-check the spec before any system state is built.

        Raised :class:`~repro.errors.SpecError`\\ s carry the same ``CDSS0xx``
        codes and spans that ``python -m repro.lint`` reports, so build-time
        and lint-time messages agree.
        """
        if not self.peers:
            raise SpecError(
                "a network spec needs at least one peer", code=_codes.MALFORMED_SPEC
            )
        for error in self.section_problems():
            raise error
        for peer in self.peers.values():
            if not peer.relations:
                raise SpecError(
                    f"peer {peer.name!r} declares no relations",
                    code=_codes.MALFORMED_SPEC,
                    span=peer.span_of("peer"),
                )
            for relation, key in peer.keys.items():
                if relation not in peer.relations:
                    raise SpecError(
                        f"peer {peer.name!r} declares a key for unknown relation {relation!r}",
                        code=_codes.UNKNOWN_RELATION,
                        span=peer.span_of(f"key:{relation}"),
                    )
            for trusted in peer.trust:
                if trusted != TRUST_DEFAULT and trusted not in self.peers:
                    raise SpecError(
                        f"peer {peer.name!r} declares trust in unknown peer {trusted!r}",
                        code=_codes.UNKNOWN_PEER,
                        span=peer.span_of(f"trust:{trusted}"),
                    )
        seen_ids: set[str] = set()
        for mapping in self.mappings:
            if mapping.mapping_id in seen_ids:
                raise SpecError(
                    f"duplicate mapping id {mapping.mapping_id!r}",
                    code=_codes.DUPLICATE_MAPPING,
                    span=mapping.span,
                )
            seen_ids.add(mapping.mapping_id)
            for role, peer_name in (
                ("source", mapping.source_peer),
                ("target", mapping.target_peer),
            ):
                if peer_name not in self.peers:
                    raise SpecError(
                        f"mapping {mapping.mapping_id!r} references unknown "
                        f"{role} peer {peer_name!r}",
                        code=_codes.UNKNOWN_PEER,
                        span=mapping.span,
                    )
            mapping.validate_against(
                self.peers[mapping.source_peer].schema(),
                self.peers[mapping.target_peer].schema(),
            )

    def section_problems(self) -> Iterator[SpecError]:
        """One located error per malformed section, not raised: what
        :meth:`validate` raises first and the analyzer reports in full."""
        for section in self.sections.values():
            try:
                section.validate()
            except SpecError as error:
                error.span = error.span or self.spans.get(section.name)
                yield error

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "peers": {name: peer.to_dict() for name, peer in self.peers.items()},
            "mappings": [mapping_to_tgd(mapping) for mapping in self.mappings],
        }
        for name in SECTIONS:
            if name in self.sections:
                data[name] = self.sections[name].to_dict()
        return data

    def to_text(self) -> str:
        lines = [f"network {self.name}"]
        lines.extend(
            self.sections[name].to_text_line() for name in SECTIONS if name in self.sections
        )
        for peer in self.peers.values():
            header = f"peer {peer.name}"
            if peer.schema_name:
                header += f" schema {peer.schema_name}"
            lines.append(header)
            for relation, attributes in peer.relations.items():
                line = f"  relation {relation}({', '.join(attributes)})"
                key = peer.keys.get(relation)
                if key:
                    line += f" key({', '.join(key)})"
                lines.append(line)
            for trusted, priority in peer.trust.items():
                lines.append(f"  trust {trusted} {priority}")
        for mapping in self.mappings:
            lines.append(f"mapping {mapping_to_tgd(mapping)}")
        return "\n".join(lines) + "\n"


SpecInput = Union[str, MappingType, NetworkSpec]


def _strip_comment(line: str) -> str:
    # Quote-aware: '#'/'%' inside a quoted constant is content, not a comment.
    in_string: Optional[str] = None
    for index, char in enumerate(line):
        if in_string:
            if char == in_string:
                in_string = None
        elif char in "'\"":
            in_string = char
        elif char in "#%":
            return line[:index].rstrip()
    return line.rstrip()


def _parse_text_spec(text: str) -> NetworkSpec:
    spec = NetworkSpec()
    current: Optional[PeerSpec] = None
    pending_mapping: list[str] = []
    pending_start = 0

    def finish_mapping() -> None:
        if pending_mapping:
            raise SpecError(
                "mapping statement is missing its closing period: "
                + " ".join(part.strip() for part in pending_mapping),
                code=_codes.MALFORMED_SPEC,
                span=SourceSpan(pending_start, 1),
            )

    for number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            if pending_mapping:
                pending_mapping.append("")
            continue

        if pending_mapping:
            # Keep the raw (comment-stripped, indentation-preserving) line so
            # spans inside multi-line mappings keep exact columns.
            pending_mapping.append(_strip_comment(raw))
            if line.endswith("."):
                spec.mappings.append(
                    _mapping_from_lines(
                        pending_mapping, f"line {pending_start}", pending_start
                    )
                )
                pending_mapping = []
            continue

        span = SourceSpan(number, len(raw) - len(raw.lstrip()) + 1)

        def fail(message: str, number: int = number, span: SourceSpan = span) -> NoReturn:
            raise SpecError(f"line {number}: {message}", code=_codes.MALFORMED_SPEC, span=span)

        def bad_declaration(what: str, statement: str = raw.strip()) -> NoReturn:
            fail(f"malformed {what} declaration {statement!r}")

        # Statements dispatch on their first word, so "storefront" or
        # "peers B" is an unrecognised statement, not a malformed section.
        keyword = _KEYWORD_RE.match(line).group()  # type: ignore[union-attr]
        tokens = line[len(keyword):].split()

        if keyword == "network" and tokens:
            spec.name = line[len(keyword):].strip()
            spec.spans["network"] = span

        elif keyword in SECTIONS:
            if current is not None:
                fail(
                    f"the {keyword} declaration belongs at the top of the spec, "
                    "before any peer section"
                )
            if keyword in spec.sections:
                fail(f"the {keyword} section is declared twice")
            leading = len(tokens) if SECTIONS[keyword][0].levels else 1
            words, knobs = tokens[:leading], tokens[leading:]
            if not words or len(knobs) % 2 or not all(map(_WORD_RE.fullmatch, tokens)):
                bad_declaration(keyword)
            section = make_section(keyword, words, zip(knobs[::2], knobs[1::2]), fail)
            if section is not None:
                spec.sections[keyword] = section
            spec.spans[keyword] = span

        elif keyword == "peer":
            match = _PEER_RE.match(line)
            if match is None:
                bad_declaration("peer")
            name = match.group("name")
            if name in spec.peers:
                fail(f"peer {name!r} is declared twice")
            current = PeerSpec(name=name, schema_name=match.group("schema"))
            current.spans["peer"] = span
            spec.peers[name] = current

        elif keyword == "relation":
            if current is None:
                fail("relation declared outside a peer section")
            match = _RELATION_RE.match(line)
            if match is None:
                bad_declaration("relation")
            relation = match.group("name")
            if relation in current.relations:
                fail(f"relation {relation!r} of peer {current.name!r} is declared twice")
            attributes = [attr.strip() for attr in match.group("attrs").split(",") if attr.strip()]
            current.relations[relation] = attributes
            current.spans[f"relation:{relation}"] = span
            key_text = match.group("key")
            if key_text is not None:
                current.keys[relation] = [
                    attr.strip() for attr in key_text.split(",") if attr.strip()
                ]
                current.spans[f"key:{relation}"] = span

        elif keyword == "trust":
            if current is None:
                fail("trust declared outside a peer section")
            match = _TRUST_RE.match(line)
            if match is None:
                bad_declaration("trust")
            current.trust[match.group("peer")] = int(match.group("priority"))
            current.spans[f"trust:{match.group('peer')}"] = span

        elif keyword == "mapping":
            # Blank out the "mapping" keyword (and anything before it) so the
            # remaining text keeps the raw line's exact columns for spans.
            stripped = _strip_comment(raw)
            keyword_end = stripped.find("mapping") + len("mapping")
            masked = " " * keyword_end + stripped[keyword_end:]
            if line.endswith("."):
                spec.mappings.append(_mapping_from_lines([masked], f"line {number}", number))
            else:
                pending_mapping = [masked]
                pending_start = number

        else:
            fail(f"unrecognised spec statement {raw.strip()!r}")

    finish_mapping()
    return spec


def _mapping_from_lines(
    lines: Sequence[str], context: str, origin_line: int = 1
) -> Mapping:
    text = "\n".join(lines)
    try:
        return mapping_from_tgd(text, origin_line=origin_line)
    except SpecError:
        raise
    except Exception as error:  # parse/mapping errors become spec errors with context
        flat = " ".join(part.strip() for part in lines if part.strip())
        raise SpecError(
            f"{context}: bad mapping {flat!r}: {error}",
            code=getattr(error, "code", None) or _codes.MALFORMED_SPEC,
            span=getattr(error, "span", None) or SourceSpan(origin_line, 1),
        ) from error


def _parse_dict_spec(data: MappingType) -> NetworkSpec:
    unknown = [key for key in data if key not in ("name", "peers", "mappings", *SECTIONS)]
    if unknown:
        malformed(f"unrecognised spec entry {unknown[0]!r}")
    spec = NetworkSpec(name=str(data.get("name", "network")))
    for name, (head, *knobs) in SECTIONS.items():
        entry = data.get(name)
        if entry is None:
            continue
        if not knobs:  # a bare word, or several levels as a list or one string
            words = entry if isinstance(entry, (list, tuple)) else str(entry).split()
            section = make_section(name, words, ())
        elif isinstance(entry, MappingType):
            section = make_section(
                name,
                [entry.get(head.knob, head.default)],
                ((k, v) for k, v in entry.items() if k != head.knob and v is not None),
            )
        else:
            malformed(f"the {name!r} entry must be a mapping, got {type(entry).__name__}")
        if section is not None:
            spec.sections[name] = section
    peers = data.get("peers")
    if not isinstance(peers, MappingType) or not peers:
        raise SpecError("dict specs need a non-empty 'peers' mapping")
    for name, entry in peers.items():
        entry = entry or {}
        if not isinstance(entry, MappingType):
            raise SpecError(f"peer {name!r} entry must be a mapping, got {type(entry).__name__}")
        relations = entry.get("relations", {})
        spec.peers[name] = PeerSpec(
            name=name,
            schema_name=entry.get("schema"),
            relations={rel: list(attrs) for rel, attrs in relations.items()},
            keys={rel: list(attrs) for rel, attrs in entry.get("keys", {}).items()},
            trust={peer: int(p) for peer, p in entry.get("trust", {}).items()},
        )
    for index, entry in enumerate(data.get("mappings", [])):
        if isinstance(entry, Mapping):
            spec.mappings.append(entry)
        elif isinstance(entry, str):
            spec.mappings.append(_mapping_from_lines([entry], f"mappings[{index}]"))
        else:
            raise SpecError(
                f"mappings[{index}] must be a tgd string or Mapping, got {type(entry).__name__}"
            )
    return spec


def parse_network_spec(source: SpecInput, *, validate: bool = True) -> NetworkSpec:
    """Parse a textual or dict network description into a :class:`NetworkSpec`.

    The spec is validated (unknown peers, duplicate ids, arity mismatches)
    before being returned, so a spec that parses is guaranteed to build.
    The static analyzer passes ``validate=False`` so it can report *every*
    problem as a diagnostic instead of raising on the first.
    """
    if isinstance(source, NetworkSpec):
        spec = source
    elif isinstance(source, str):
        spec = _parse_text_spec(source)
    elif isinstance(source, MappingType):
        spec = _parse_dict_spec(source)
    else:
        raise SpecError(
            f"cannot parse a network spec from {type(source).__name__}; "
            "pass text, a dict, or a NetworkSpec"
        )
    if validate:
        spec.validate()
    return spec


def spec_of(cdss) -> NetworkSpec:
    """Extract the declarative spec of a running system (inverse of ``from_spec``).

    Only table-based trust policies (per-peer priorities plus a default) can
    be captured; policies carrying :class:`TrustCondition` predicates raise
    :class:`SpecError` because arbitrary Python predicates have no textual
    form.
    """
    spec = NetworkSpec(
        name=getattr(cdss, "name", None) or "network", sections=sections_of(cdss.config)
    )
    for peer in cdss.catalog.peers():
        policy = peer.trust
        if policy.conditions:
            raise SpecError(
                f"peer {peer.name!r} uses trust conditions with Python predicates, "
                "which cannot be serialized to a network spec"
            )
        trust: dict[str, int] = dict(policy.peer_priorities)
        if policy.default_priority != 1:
            trust[TRUST_DEFAULT] = policy.default_priority
        spec.peers[peer.name] = PeerSpec(
            name=peer.name,
            schema_name=peer.schema.name,
            relations={
                relation.name: list(relation.attributes) for relation in peer.schema
            },
            keys={
                relation.name: list(relation.key)
                for relation in peer.schema
                if relation.key != relation.attributes
            },
            trust=trust,
        )
    spec.mappings = list(cdss.catalog.mappings())
    return spec


def sections_of(config: SystemConfig) -> dict[str, SectionSpec]:
    """The sections that describe ``config``: every spec-settable option that
    is off its default, so building them over the default configuration
    gives ``config`` back and an all-default system has no section lines.

    A knob that only one head word accepts (``sketch`` under ``sync gossip``)
    is left out under any other head, where the grammar has no place for it.
    """
    sections = {}
    for name, (head, *knobs) in SECTIONS.items():
        kind = head.get(config)
        values = {head.knob: kind}
        values.update(
            (option.knob, option.get(config))
            for option in knobs
            if option.get(config) != option.default and option.under in (None, kind)
        )
        if len(values) > 1 or kind != head.default:
            sections[name] = SectionSpec(name, values)
    return sections
