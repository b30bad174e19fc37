"""Declarative schema mappings between peers.

A mapping is a tuple-generating dependency (tgd)

    body over the source peer's schema  →  head over the target peer's schema

written, as in the paper, in datalog notation.  The Figure-2 network uses:

* identity mappings ``M_A↔B`` and ``M_C↔D`` between peers sharing a schema,
* the join mapping ``M_A→C`` turning the three Σ1 tables into the single Σ2
  table ``OPS(org, prot, seq)``, and
* the split mapping ``M_C→A`` doing the inverse, which requires existential
  variables (``oid``, ``pid``) that become labelled nulls in Σ1.

Mappings are *directional*; a bidirectional relationship is expressed with
two mappings.  The update-exchange engine compiles mappings into datalog
rules over peer-qualified relation names (see :mod:`repro.exchange.rules`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..analysis import codes as _codes
from ..datalog.ast import Atom, Constant, SkolemTerm, Term, Variable
from ..datalog.parser import parse_atom, parse_tgd
from ..errors import MappingError, SourceSpan
from .schema import PeerSchema, RelationSchema, split_qualified


@dataclass(frozen=True)
class Mapping:
    """A schema mapping (tgd) from one peer's schema to another's.

    Attributes:
        mapping_id: Unique identifier, e.g. ``"M_A_to_C"``.
        source_peer: Name of the peer whose relations appear in the body.
        target_peer: Name of the peer whose relations appear in the head.
        body: Conjunction of atoms over the source schema (unqualified names).
        heads: Conjunction of atoms over the target schema (unqualified
            names).  Variables appearing only in the head are existential and
            become labelled nulls during exchange.
    """

    mapping_id: str
    source_peer: str
    target_peer: str
    body: tuple[Atom, ...]
    heads: tuple[Atom, ...]
    #: Where the mapping was declared, when parsed from a spec document.
    #: Excluded from equality/hashing so structurally identical mappings
    #: from different sources still compare equal.
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "heads", tuple(self.heads))
        if not self.mapping_id:
            raise MappingError("mapping_id must be non-empty")
        if not self.body:
            raise MappingError(f"mapping {self.mapping_id!r} has an empty body")
        if not self.heads:
            raise MappingError(f"mapping {self.mapping_id!r} has an empty head")
        for atom in self.body + self.heads:
            if atom.negated:
                raise MappingError(
                    f"mapping {self.mapping_id!r} uses negation, which tgds do not allow"
                )

    # -- variable structure ----------------------------------------------------
    def body_variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for atom in self.body:
            found.update(atom.variables())
        return found

    def head_variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for atom in self.heads:
            found.update(atom.variables())
        return found

    def existential_variables(self) -> set[Variable]:
        """Head variables not bound by the body (they become labelled nulls)."""
        return self.head_variables() - self.body_variables()

    def exported_variables(self) -> set[Variable]:
        """Variables shared between body and head (the values that flow across)."""
        return self.head_variables() & self.body_variables()

    @property
    def is_identity(self) -> bool:
        """True for single-atom mappings that copy a relation unchanged."""
        if len(self.body) != 1 or len(self.heads) != 1:
            return False
        body_atom, head_atom = self.body[0], self.heads[0]
        return (
            body_atom.predicate == head_atom.predicate
            and body_atom.terms == head_atom.terms
            and not self.existential_variables()
        )

    # -- relation usage -----------------------------------------------------
    def source_relations(self) -> set[str]:
        return {atom.predicate for atom in self.body}

    def target_relations(self) -> set[str]:
        return {atom.predicate for atom in self.heads}

    def validate_against(
        self, source_schema: PeerSchema, target_schema: PeerSchema
    ) -> None:
        """Check that the mapping only uses relations/arities that exist."""
        for atom in self.body:
            if not source_schema.has_relation(atom.predicate):
                raise MappingError(
                    f"mapping {self.mapping_id!r} body uses unknown relation "
                    f"{atom.predicate!r} of peer {self.source_peer!r}",
                    code=_codes.UNKNOWN_RELATION,
                    span=atom.span or self.span,
                )
            expected = source_schema.arity(atom.predicate)
            if atom.arity != expected:
                raise MappingError(
                    f"mapping {self.mapping_id!r} body atom {atom.predicate!r} has arity "
                    f"{atom.arity}, schema says {expected}",
                    code=_codes.ARITY_MISMATCH,
                    span=atom.span or self.span,
                )
        for atom in self.heads:
            if not target_schema.has_relation(atom.predicate):
                raise MappingError(
                    f"mapping {self.mapping_id!r} head uses unknown relation "
                    f"{atom.predicate!r} of peer {self.target_peer!r}",
                    code=_codes.UNKNOWN_RELATION,
                    span=atom.span or self.span,
                )
            expected = target_schema.arity(atom.predicate)
            if atom.arity != expected:
                raise MappingError(
                    f"mapping {self.mapping_id!r} head atom {atom.predicate!r} has arity "
                    f"{atom.arity}, schema says {expected}",
                    code=_codes.ARITY_MISMATCH,
                    span=atom.span or self.span,
                )

    def __str__(self) -> str:
        body = ", ".join(repr(atom) for atom in self.body)
        heads = ", ".join(repr(atom) for atom in self.heads)
        return f"[{self.mapping_id}] {self.source_peer}: {body}  ->  {self.target_peer}: {heads}"


# -- constructors ----------------------------------------------------------------

def mapping_from_tgd(
    text: str, mapping_id: Optional[str] = None, *, origin_line: int = 1
) -> Mapping:
    """Build a mapping from a peer-qualified tgd rule.

    The rule is written target-first, in the notation of the paper and the
    declarative network-spec language::

        [M_AC] @Crete.OPS(org, prot, seq) :-
            @Alaska.O(org, oid), @Alaska.P(prot, pid), @Alaska.S(oid, pid, seq).

    Every atom must be peer-qualified; all head atoms must name one target
    peer and all body atoms one source peer.  The rule label becomes the
    mapping id unless ``mapping_id`` overrides it.
    """
    tgd = parse_tgd(text, origin_line=origin_line)
    identifier = mapping_id or tgd.label
    if not identifier:
        raise MappingError(
            f"tgd {text!r} needs a [label] or an explicit mapping_id",
            code=_codes.MALFORMED_SPEC,
            span=tgd.span,
        )

    def unqualify(atoms, side: str) -> tuple[str, tuple[Atom, ...]]:
        peers: set[str] = set()
        stripped: list[Atom] = []
        for atom in atoms:
            if "." not in atom.predicate:
                raise MappingError(
                    f"mapping {identifier!r}: atom {atom.predicate!r} in the {side} "
                    "is not peer-qualified (write @Peer.Relation(...))",
                    code=_codes.MALFORMED_SPEC,
                    span=atom.span or tgd.span,
                )
            peer, relation = split_qualified(atom.predicate)
            peers.add(peer)
            stripped.append(Atom(relation, atom.terms, span=atom.span))
        if len(peers) != 1:
            raise MappingError(
                f"mapping {identifier!r}: the {side} must reference exactly one "
                f"peer, found {sorted(peers)}",
                code=_codes.MALFORMED_SPEC,
                span=tgd.span,
            )
        return peers.pop(), tuple(stripped)

    target_peer, heads = unqualify(tgd.heads, "head")
    source_peer, body = unqualify(tgd.body, "body")
    return Mapping(identifier, source_peer, target_peer, body, heads, span=tgd.span)


def _render_term(term: Term) -> str:
    """Render a term so that :func:`parse_tgd` reads it back unchanged."""
    if isinstance(term, Variable):
        return f"?{term.name}"
    if isinstance(term, SkolemTerm):
        inner = ", ".join(_render_term(argument) for argument in term.arguments)
        return f"{term.function}({inner})"
    if isinstance(term, Constant):
        value = term.value
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, str):
            escaped = value.replace("\\", "\\\\").replace("'", "\\'")
            return f"'{escaped}'"
        return repr(value)
    raise MappingError(f"cannot render term {term!r} in a tgd")


def _render_qualified_atom(peer: str, atom: Atom) -> str:
    terms = ", ".join(_render_term(term) for term in atom.terms)
    return f"@{peer}.{atom.predicate}({terms})"


def mapping_to_tgd(mapping: Mapping) -> str:
    """Render a mapping as the peer-qualified tgd text of the spec language.

    Inverse of :func:`mapping_from_tgd` (up to whitespace): the rendered rule
    parses back into an equal mapping.
    """
    heads = ", ".join(
        _render_qualified_atom(mapping.target_peer, atom) for atom in mapping.heads
    )
    body = ", ".join(
        _render_qualified_atom(mapping.source_peer, atom) for atom in mapping.body
    )
    return f"[{mapping.mapping_id}] {heads} :- {body}."


def identity_mapping(
    mapping_id: str,
    source_peer: str,
    target_peer: str,
    relations: Iterable[RelationSchema | str],
    arities: dict[str, int] | None = None,
) -> list[Mapping]:
    """One identity mapping per relation, copying it unchanged between peers.

    Accepts either :class:`RelationSchema` objects or relation names plus an
    ``arities`` dict.  Returns one :class:`Mapping` per relation so that each
    can be traced separately in provenance.
    """
    mappings: list[Mapping] = []
    for relation in relations:
        if isinstance(relation, RelationSchema):
            name, arity = relation.name, relation.arity
        else:
            if arities is None or relation not in arities:
                raise MappingError(
                    f"identity_mapping needs the arity of relation {relation!r}"
                )
            name, arity = relation, arities[relation]
        variables = tuple(Variable(f"x{i}") for i in range(arity))
        atom = Atom(name, variables)
        mappings.append(
            Mapping(f"{mapping_id}_{name}", source_peer, target_peer, (atom,), (atom,))
        )
    return mappings


def join_mapping(
    mapping_id: str,
    source_peer: str,
    target_peer: str,
    head: str,
    body: Sequence[str],
) -> Mapping:
    """Build a mapping whose body is a join and whose head is a single atom.

    ``head`` and each element of ``body`` are atoms in textual notation, e.g.::

        join_mapping("M_A_to_C", "Alaska", "Crete",
                     "OPS(org, prot, seq)",
                     ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"])
    """
    head_atom = parse_atom(head)
    body_atoms = tuple(parse_atom(text) for text in body)
    return Mapping(mapping_id, source_peer, target_peer, body_atoms, (head_atom,))


def split_mapping(
    mapping_id: str,
    source_peer: str,
    target_peer: str,
    heads: Sequence[str],
    body: str,
) -> Mapping:
    """Build a mapping that splits one source atom into several head atoms.

    Existential head variables (those absent from the body) are allowed and
    become labelled nulls, e.g.::

        split_mapping("M_C_to_A", "Crete", "Alaska",
                      ["O(org, oid)", "P(prot, pid)", "S(oid, pid, seq)"],
                      "OPS(org, prot, seq)")
    """
    head_atoms = tuple(parse_atom(text) for text in heads)
    body_atom = parse_atom(body)
    return Mapping(mapping_id, source_peer, target_peer, (body_atom,), head_atoms)
