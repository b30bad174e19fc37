"""Compiling schema mappings into the update-exchange datalog program.

The program works over *peer-qualified* relation names so that identically
named relations at different peers stay distinct:

* ``Peer.R!pub`` — the extensional relation holding the tuples that ``Peer``
  has published for its relation ``R`` (its public contributions),
* ``Peer.R`` — the intensional relation holding everything visible at
  ``Peer`` in relation ``R``: its own published contributions plus whatever
  the mappings derive from other peers.

For every peer relation we emit the *contribution rule*::

    Peer.R(x̄) :- Peer.R!pub(x̄).            (label: pub_Peer_R)

and for every mapping ``m : body@source -> head@target`` one rule per head
atom, with body atoms qualified by the source peer, head atoms by the target
peer, and existential variables skolemised::

    Target.H(..., SK_m_v(...), ...) :- Source.B1(...), Source.B2(...), ...
                                        (label: m)

Because mappings may form cycles (Figure 2 maps Σ1 → Σ2 → Σ1), the resulting
program is recursive; the datalog engine's fixpoint evaluation handles this,
and skolemisation guarantees termination since labelled nulls are functions of
existing values only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from ..core.mapping import Mapping
from ..core.schema import PeerSchema
from ..datalog.ast import Atom, Program, Rule, Variable
from ..datalog.skolem import SkolemFactory, skolemize_head

#: Suffix separating a peer's published (extensional) contributions from the
#: derived relation of the same name.
PUBLISHED_SUFFIX = "!pub"


@lru_cache(maxsize=None)
def published_relation(peer: str, relation: str) -> str:
    """Name of the extensional relation holding ``peer``'s published tuples.

    Memoized: every published row names its relation, and the facts built
    from them share one string per ``(peer, relation)`` instead of one copy
    per row.  The memo holds one short string per pair the process has
    named, as many as the schemas it has built.
    """
    return f"{peer}.{relation}{PUBLISHED_SUFFIX}"


def derived_relation(peer: str, relation: str) -> str:
    """Name of the derived (visible) relation ``relation`` at ``peer``."""
    return f"{peer}.{relation}"


def split_derived(name: str) -> tuple[str, str]:
    """Inverse of :func:`derived_relation` (``"Crete.OPS"`` -> ``("Crete", "OPS")``)."""
    peer, _, relation = name.partition(".")
    return peer, relation


def is_published_relation(name: str) -> bool:
    return name.endswith(PUBLISHED_SUFFIX)


def qualify_atom(atom: Atom, peer: str) -> Atom:
    """Qualify an unqualified mapping atom with a peer name."""
    return Atom(derived_relation(peer, atom.predicate), atom.terms, negated=atom.negated)


def contribution_rules(peer_name: str, schema: PeerSchema) -> list[Rule]:
    """The ``Peer.R(x̄) :- Peer.R!pub(x̄)`` rule for every relation of a peer."""
    rules = []
    for relation in schema:
        variables = tuple(Variable(f"x{i}") for i in range(relation.arity))
        head = Atom(derived_relation(peer_name, relation.name), variables)
        body = Atom(published_relation(peer_name, relation.name), variables)
        rules.append(Rule(head, (body,), label=f"pub_{peer_name}_{relation.name}"))
    return rules


def mapping_rules(mapping: Mapping, factory: SkolemFactory) -> list[Rule]:
    """Compile one mapping into qualified, skolemised datalog rules."""
    qualified_body = tuple(qualify_atom(atom, mapping.source_peer) for atom in mapping.body)
    qualified_heads = [qualify_atom(atom, mapping.target_peer) for atom in mapping.heads]

    body_variables: set[Variable] = set()
    for atom in qualified_body:
        body_variables.update(atom.variables())

    skolemised_heads = skolemize_head(
        qualified_heads, body_variables, mapping.mapping_id, factory
    )
    rules = []
    for head in skolemised_heads:
        rule = Rule(head, qualified_body, label=mapping.mapping_id)
        rule.validate()
        rules.append(rule)
    return rules


def compile_mappings(
    peers: Iterable[tuple[str, PeerSchema]],
    mappings: Sequence[Mapping],
    factory: SkolemFactory | None = None,
) -> Program:
    """Build the full update-exchange program for a set of peers and mappings.

    Args:
        peers: ``(peer name, schema)`` pairs for every participant.
        mappings: Every registered schema mapping.
        factory: Skolem factory (a fresh one is created when omitted).

    Returns:
        A validated datalog :class:`Program` ready for (incremental)
        evaluation by the exchange engine.
    """
    factory = factory or SkolemFactory()
    program = Program()
    for peer_name, schema in peers:
        for rule in contribution_rules(peer_name, schema):
            program.add(rule)
    for mapping in mappings:
        for rule in mapping_rules(mapping, factory):
            program.add(rule)
    return program
