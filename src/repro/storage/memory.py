"""In-memory peer instance storage."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..datalog.indexing import (
    ColumnIndexes,
    build_column_index,
    index_discard,
    index_insert,
)
from ..errors import StorageError, TupleArityError, UnknownRelationError


class MemoryInstance:
    """A peer's local instance held in memory as sets of tuples per relation.

    This is the backend used by the multi-peer simulations, tests and
    benchmarks; it implements :class:`repro.storage.interface.StorageBackend`.
    """

    def __init__(self) -> None:
        self._relations: dict[str, set[tuple]] = {}
        self._arities: dict[str, int] = {}
        #: relation -> position -> value -> bucket of tuples (see
        #: :mod:`repro.datalog.indexing`); built on the first lookup of a
        #: column and maintained by insert/delete.
        self._indexes: dict[str, ColumnIndexes] = {}

    # -- schema -----------------------------------------------------------
    def create_relation(self, name: str, arity: int) -> None:
        if arity < 0:
            raise StorageError(f"relation {name!r} cannot have negative arity")
        existing = self._arities.get(name)
        if existing is not None:
            if existing != arity:
                raise StorageError(
                    f"relation {name!r} already exists with arity {existing}, not {arity}"
                )
            return
        self._arities[name] = arity
        self._relations[name] = set()

    def relations(self) -> set[str]:
        return set(self._arities)

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    def _check(self, relation: str, values: tuple) -> tuple:
        arity = self.arity(relation)
        values = tuple(values)
        if len(values) != arity:
            raise TupleArityError(
                f"relation {relation!r} has arity {arity}, got tuple of length {len(values)}"
            )
        return values

    # -- data --------------------------------------------------------------
    def insert(self, relation: str, values: tuple) -> bool:
        values = self._check(relation, values)
        rows = self._relations[relation]
        if values in rows:
            return False
        rows.add(values)
        positions = self._indexes.get(relation)
        if positions:
            index_insert(positions, values)
        return True

    def insert_many(self, relation: str, rows: Iterable[tuple]) -> int:
        added = 0
        for values in rows:
            if self.insert(relation, values):
                added += 1
        return added

    def delete_many(self, relation: str, rows: Iterable[tuple]) -> int:
        removed = 0
        for values in rows:
            if self.delete(relation, values):
                removed += 1
        return removed

    def delete(self, relation: str, values: tuple) -> bool:
        values = self._check(relation, values)
        rows = self._relations[relation]
        if values not in rows:
            return False
        rows.remove(values)
        positions = self._indexes.get(relation)
        if positions:
            index_discard(positions, values)
        return True

    def contains(self, relation: str, values: tuple) -> bool:
        values = self._check(relation, values)
        return values in self._relations[relation]

    def lookup(self, relation: str, position: int, value: object) -> frozenset[tuple]:
        arity = self.arity(relation)
        if not 0 <= position < arity:
            raise StorageError(
                f"relation {relation!r} has no column {position} (arity {arity})"
            )
        positions = self._indexes.setdefault(relation, {})
        buckets = positions.get(position)
        if buckets is None:
            buckets = build_column_index(self._relations[relation], position)
            positions[position] = buckets
        return frozenset(buckets.get(value, ()))

    def scan(self, relation: str) -> Iterator[tuple]:
        self.arity(relation)
        return iter(set(self._relations[relation]))

    def count(self, relation: str | None = None) -> int:
        if relation is not None:
            self.arity(relation)
            return len(self._relations[relation])
        return sum(len(rows) for rows in self._relations.values())

    def clear(self, relation: str | None = None) -> None:
        if relation is not None:
            self.arity(relation)
            self._relations[relation].clear()
            self._indexes.pop(relation, None)
            return
        for rows in self._relations.values():
            rows.clear()
        self._indexes.clear()

    # -- convenience ----------------------------------------------------------
    def snapshot(self) -> dict[str, frozenset[tuple]]:
        """An immutable snapshot of every relation (used for public snapshots)."""
        return {name: frozenset(rows) for name, rows in self._relations.items()}

    def load(self, data: Mapping[str, Iterable[tuple]]) -> None:
        """Bulk-load ``{relation: tuples}``; relations must already exist."""
        for relation, rows in data.items():
            self.insert_many(relation, rows)

    def copy(self) -> "MemoryInstance":
        clone = MemoryInstance()
        clone._arities = dict(self._arities)
        clone._relations = {name: set(rows) for name, rows in self._relations.items()}
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryInstance):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}[{len(rows)}]" for name, rows in sorted(self._relations.items())
        )
        return f"MemoryInstance({parts})"
