"""Relation schemas and peer schemas.

A peer schema is a named collection of relation schemas.  In the Figure-2
network of the paper, peers Alaska and Beijing share

    Σ1 = { O(org, oid), P(prot, pid), S(oid, pid, seq) }

while Crete and Dresden share

    Σ2 = { OPS(org, prot, seq) }.

Relation schemas optionally declare a key (a subset of attribute positions);
keys drive conflict detection during reconciliation (two updates conflict
when they assert different values for the same key).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ..errors import SchemaError, TupleArityError, UnknownRelationError


@dataclass(frozen=True)
class RelationSchema:
    """Schema of one relation: a name, attribute names, and an optional key.

    Attributes:
        name: Relation name, unique within a peer schema.
        attributes: Ordered attribute names.
        key: Attribute names forming the primary key.  Defaults to all
            attributes (i.e. the whole tuple is the key and any two distinct
            tuples are compatible).
    """

    name: str
    attributes: tuple[str, ...]
    key: tuple[str, ...] = ()
    #: Positions of the key attributes, derived once from ``key``.
    _key_positions: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        attributes = tuple(self.attributes)
        object.__setattr__(self, "attributes", attributes)
        if len(set(attributes)) != len(attributes):
            raise SchemaError(f"relation {self.name!r} has duplicate attribute names")
        key = tuple(self.key) if self.key else attributes
        unknown = set(key) - set(attributes)
        if unknown:
            raise SchemaError(
                f"key attributes {sorted(unknown)} of relation {self.name!r} are not attributes"
            )
        object.__setattr__(self, "key", key)
        object.__setattr__(
            self, "_key_positions", tuple(attributes.index(attribute) for attribute in key)
        )

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def attribute_index(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from None

    def key_of(self, values: Sequence[object]) -> tuple:
        """Project a tuple onto its key attributes."""
        self.check_arity(values)
        return tuple(values[index] for index in self._key_positions)

    def check_arity(self, values: Sequence[object]) -> tuple:
        values = tuple(values)
        if len(values) != self.arity:
            raise TupleArityError(
                f"relation {self.name!r} expects {self.arity} values, got {len(values)}"
            )
        return values

    def as_dict(self, values: Sequence[object]) -> dict[str, object]:
        """Return ``{attribute: value}`` for a tuple of this relation."""
        values = self.check_arity(values)
        return dict(zip(self.attributes, values))

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.attributes)})"


@dataclass(frozen=True)
class PeerSchema:
    """A named collection of relation schemas (one peer's local schema)."""

    name: str
    relations: tuple[RelationSchema, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("schema name must be non-empty")
        relations = tuple(self.relations)
        object.__setattr__(self, "relations", relations)
        names = [relation.name for relation in relations]
        if len(set(names)) != len(names):
            raise SchemaError(f"schema {self.name!r} declares duplicate relation names")

    @staticmethod
    def build(name: str, spec: Mapping[str, Sequence[str]], keys: Optional[Mapping[str, Sequence[str]]] = None) -> "PeerSchema":
        """Build a schema from ``{relation: [attributes]}`` plus optional keys."""
        keys = keys or {}
        relations = tuple(
            RelationSchema(relation, tuple(attributes), tuple(keys.get(relation, ())))
            for relation, attributes in spec.items()
        )
        return PeerSchema(name, relations)

    def relation_names(self) -> tuple[str, ...]:
        return tuple(relation.name for relation in self.relations)

    def relation(self, name: str) -> RelationSchema:
        for candidate in self.relations:
            if candidate.name == name:
                return candidate
        raise UnknownRelationError(f"schema {self.name!r} has no relation {name!r}")

    def has_relation(self, name: str) -> bool:
        return any(candidate.name == name for candidate in self.relations)

    def arity(self, name: str) -> int:
        return self.relation(name).arity

    def validate_tuple(self, relation: str, values: Sequence[object]) -> tuple:
        """Check arity and return the tuple (raises on mismatch)."""
        return self.relation(relation).check_arity(values)

    def __iter__(self) -> Iterable[RelationSchema]:
        return iter(self.relations)

    def __str__(self) -> str:
        inner = ", ".join(str(relation) for relation in self.relations)
        return f"{self.name} = {{ {inner} }}"


def qualified_name(peer: str, relation: str) -> str:
    """The globally unique name of a peer's relation, e.g. ``Alaska.O``.

    The update-exchange datalog program works over qualified relation names so
    that identically named relations at different peers stay distinct.
    """
    return f"{peer}.{relation}"


def split_qualified(name: str) -> tuple[str, str]:
    """Inverse of :func:`qualified_name`."""
    peer, _, relation = name.partition(".")
    if not relation:
        raise SchemaError(f"{name!r} is not a qualified relation name")
    return peer, relation
