"""SQLite-backed peer instance storage.

The original ORCHESTRA stores peer instances in a relational DBMS.  This
backend provides the same :class:`~repro.storage.interface.StorageBackend`
protocol on top of the standard-library ``sqlite3`` module, including support
for labelled nulls (skolem terms), which are serialised with a type tag so
that round-tripping preserves their identity.
"""

from __future__ import annotations

import json
import re
import sqlite3
from typing import Iterable, Iterator

from ..datalog.ast import SkolemTerm
from ..errors import StorageError, TupleArityError, UnknownRelationError

#: Characters that can never appear in an identifier, even quoted: NUL is
#: rejected by SQLite itself and control characters only invite confusion.
_FORBIDDEN_RE = re.compile(r"[\x00-\x1f]")

#: Printable ASCII minus ``"`` and ``\`` — strings ``json.dumps`` emits
#: verbatim, eligible for the cell-encoding fast path.
_PLAIN_TEXT = re.compile(r'[ !#-\[\]-~]*\Z').match


def _quote_identifier(name: str) -> str:
    """Safely quote an arbitrary identifier for interpolation into SQL.

    Double-quoted identifiers may contain any character (embedded quotes are
    escaped by doubling), so relation names that are SQL reserved words
    (``order``, ``select``), contain hyphens/dots, or use non-ASCII letters
    (``Σ1.R``) all work.
    """
    return '"' + name.replace('"', '""') + '"'


def encode_cell(value: object) -> str:
    """Serialise one cell value (scalar or labelled null) to a JSON string.

    The encoding is *canonical* with respect to Python equality: two cell
    values compare equal in Python if and only if their encoded texts are
    byte-identical.  Python collapses ``1 == True == 1.0`` (sets and dict
    keys treat them as one value), so booleans and integral floats are
    canonicalised to plain ints before serialisation.  This is what lets a
    SQLite-backed instance key and compare encoded TEXT columns directly and
    hold exactly the rows an in-memory instance holds.

    The common scalar cases are assembled directly (every cell crossing the
    SQLite boundary is encoded, and ``json.dumps`` dominated the profile);
    the fast paths produce byte-identical output to the ``json.dumps`` slow
    path, which remains for skolems, floats, and strings needing escapes.
    """
    kind = type(value)
    if kind is int:
        return '{"v": %d}' % value
    if kind is str and _PLAIN_TEXT(value) is not None:
        return '{"v": "' + value + '"}'
    if kind is bool:
        return '{"v": 1}' if value else '{"v": 0}'
    if value is None:
        return '{"v": null}'
    return json.dumps(_encode(value), sort_keys=True)


def decode_cell(text: str) -> object:
    """Inverse of :func:`encode_cell` up to Python equality.

    Canonicalisation means round-tripping maps ``True -> 1`` and
    ``2.0 -> 2``; the result always compares equal (``==``, and hash-equal
    as a set member or dict key) to the original value.
    """
    # Fast paths mirroring encode_cell's: a '{"v": ...}' wrapper always
    # holds a scalar (skolems encode as a top-level object), so unescaped
    # strings and numbers can be sliced out without the JSON parser.
    if text.startswith('{"v": ') and text.endswith("}"):
        inner = text[6:-1]
        if inner.startswith('"'):
            if "\\" not in inner:
                return inner[1:-1]
        elif inner == "null":
            return None
        else:
            try:
                return int(inner)
            except ValueError:
                try:
                    return float(inner)
                except ValueError:
                    pass
    return _decode(json.loads(text))


def _encode(value: object) -> object:
    if isinstance(value, SkolemTerm):
        return {
            "__skolem__": value.function,
            "args": [_encode(argument) for argument in value.arguments],
        }
    # Canonicalise across Python's cross-type numeric equality so encoded
    # equality coincides with ``==``: bool is a subclass of int, and floats
    # with integral values equal their int counterparts.
    if isinstance(value, bool):
        return {"v": int(value)}
    if isinstance(value, float) and value.is_integer():
        return {"v": int(value)}
    if isinstance(value, (str, int, float)) or value is None:
        return {"v": value}
    raise StorageError(f"unsupported cell value of type {type(value).__name__}: {value!r}")


def _decode(payload: object) -> object:
    if isinstance(payload, dict) and "__skolem__" in payload:
        return SkolemTerm(
            payload["__skolem__"],
            tuple(_decode(argument) for argument in payload.get("args", [])),
        )
    if isinstance(payload, dict) and "v" in payload:
        return payload["v"]
    raise StorageError(f"cannot decode stored cell payload: {payload!r}")


class SQLiteInstance:
    """A peer instance stored in an SQLite database.

    Args:
        path: Database file path, or ``":memory:"`` (the default) for an
            ephemeral database.

    Each relation becomes one table with columns ``c0..c{n-1}`` (TEXT, holding
    tag-encoded cells) and a uniqueness constraint over the full row, giving
    the same set semantics as :class:`~repro.storage.memory.MemoryInstance`.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self._connection = sqlite3.connect(path)
        #: Transactions committed so far.  Bulk operations must stay O(1) in
        #: commits regardless of row count (the write-count regression test
        #: pins this down); per-row commit cost dominates bulk loads
        #: otherwise.
        self.commit_count = 0
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS _catalog (name TEXT PRIMARY KEY, arity INTEGER NOT NULL)"
        )
        self._commit()
        self._arities: dict[str, int] = {
            name: arity
            for name, arity in self._connection.execute("SELECT name, arity FROM _catalog")
        }
        #: casefolded name -> canonical name.  SQLite identifiers are
        #: ASCII-case-insensitive even when quoted, so two relations whose
        #: names differ only by case would silently share one table.
        self._names_by_fold: dict[str, str] = {
            name.casefold(): name for name in self._arities
        }
        #: ``(relation, position)`` pairs for which a column index exists.
        self._indexed_columns: set[tuple[str, int]] = set()

    # -- helpers -------------------------------------------------------------
    def _commit(self) -> None:
        self._connection.commit()
        self.commit_count += 1

    @staticmethod
    def _validate_name(name: str) -> str:
        if not isinstance(name, str) or not name:
            raise StorageError(f"invalid relation name {name!r}: must be a non-empty string")
        if _FORBIDDEN_RE.search(name):
            raise StorageError(
                f"invalid relation name {name!r}: control characters are not allowed"
            )
        return name

    @classmethod
    def _table(cls, name: str) -> str:
        # The ``rel_`` prefix plus quote-doubling makes the table name safe
        # for reserved words, hyphens, dots, and embedded quotes alike;
        # ``create_relation`` separately rejects names that differ only by
        # ASCII case, which SQLite's case-insensitive identifiers would
        # otherwise alias onto one table.
        return _quote_identifier("rel_" + cls._validate_name(name))

    def _check(self, relation: str, values: tuple) -> tuple:
        arity = self.arity(relation)
        values = tuple(values)
        if len(values) != arity:
            raise TupleArityError(
                f"relation {relation!r} has arity {arity}, got tuple of length {len(values)}"
            )
        return values

    # -- schema ----------------------------------------------------------------
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
        collision = self._names_by_fold.get(name.casefold())
        if collision is not None and collision != name:
            # SQLite compares (even quoted) identifiers case-insensitively,
            # so this name would alias the other relation's table.
            raise StorageError(
                f"relation name {name!r} collides with existing relation "
                f"{collision!r}: SQLite identifiers are case-insensitive"
            )
        columns = ", ".join(f"c{i} TEXT NOT NULL" for i in range(arity)) or "c0 TEXT"
        unique = ", ".join(f"c{i}" for i in range(max(arity, 1)))
        self._connection.execute(
            f"CREATE TABLE IF NOT EXISTS {self._table(name)} ({columns}, UNIQUE ({unique}))"
        )
        self._connection.execute(
            "INSERT OR REPLACE INTO _catalog (name, arity) VALUES (?, ?)", (name, arity)
        )
        self._commit()
        self._arities[name] = arity
        self._names_by_fold[name.casefold()] = name

    def relations(self) -> set[str]:
        return set(self._arities)

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    # -- data ---------------------------------------------------------------
    def insert(self, relation: str, values: tuple) -> bool:
        values = self._check(relation, values)
        arity = max(len(values), 1)
        encoded = [encode_cell(value) for value in values] or [encode_cell(None)]
        placeholders = ", ".join("?" for _ in range(arity))
        cursor = self._connection.execute(
            f"INSERT OR IGNORE INTO {self._table(relation)} VALUES ({placeholders})",
            encoded,
        )
        self._commit()
        return cursor.rowcount > 0

    def insert_many(self, relation: str, rows: Iterable[tuple]) -> int:
        """Bulk insert in a single transaction via ``executemany``.

        One statement and one commit regardless of batch size — the per-row
        commit of :meth:`insert` dominates bulk-load time otherwise.
        Returns the number of tuples actually added (duplicates are ignored).
        """
        encoded_rows = [
            [encode_cell(value) for value in self._check(relation, values)]
            or [encode_cell(None)]
            for values in rows
        ]
        if not encoded_rows:
            return 0
        placeholders = ", ".join("?" for _ in encoded_rows[0])
        cursor = self._connection.executemany(
            f"INSERT OR IGNORE INTO {self._table(relation)} VALUES ({placeholders})",
            encoded_rows,
        )
        self._commit()
        return cursor.rowcount

    def delete_many(self, relation: str, rows: Iterable[tuple]) -> int:
        """Bulk delete in a single transaction via ``executemany``.

        Returns the number of tuples actually removed (missing tuples are
        no-ops, matching :meth:`delete`).
        """
        encoded_rows = [
            [encode_cell(value) for value in self._check(relation, values)]
            or [encode_cell(None)]
            for values in rows
        ]
        if not encoded_rows:
            return 0
        condition = " AND ".join(f"c{i} = ?" for i in range(len(encoded_rows[0])))
        cursor = self._connection.executemany(
            f"DELETE FROM {self._table(relation)} WHERE {condition}", encoded_rows
        )
        self._commit()
        return cursor.rowcount

    def delete(self, relation: str, values: tuple) -> bool:
        values = self._check(relation, values)
        encoded = [encode_cell(value) for value in values] or [encode_cell(None)]
        condition = " AND ".join(f"c{i} = ?" for i in range(len(encoded)))
        cursor = self._connection.execute(
            f"DELETE FROM {self._table(relation)} WHERE {condition}", encoded
        )
        self._commit()
        return cursor.rowcount > 0

    def contains(self, relation: str, values: tuple) -> bool:
        values = self._check(relation, values)
        encoded = [encode_cell(value) for value in values] or [encode_cell(None)]
        condition = " AND ".join(f"c{i} = ?" for i in range(len(encoded)))
        cursor = self._connection.execute(
            f"SELECT 1 FROM {self._table(relation)} WHERE {condition} LIMIT 1", encoded
        )
        return cursor.fetchone() is not None

    def lookup(self, relation: str, position: int, value: object) -> frozenset[tuple]:
        """Tuples whose column ``position`` equals ``value``, via a column index.

        The first probe of a ``(relation, position)`` pair creates a
        persistent SQL index on that column, so repeated point probes stop
        full-scanning the table the way :meth:`scan` does.  Relations that
        are never probed get no index.
        """
        arity = self.arity(relation)
        if not 0 <= position < arity:
            raise StorageError(
                f"relation {relation!r} has no column {position} (arity {arity})"
            )
        key = (relation, position)
        if key not in self._indexed_columns:
            index_name = _quote_identifier(f"idx_{relation}_c{position}")
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS {index_name} "
                f"ON {self._table(relation)} (c{position})"
            )
            self._commit()
            self._indexed_columns.add(key)
        cursor = self._connection.execute(
            f"SELECT * FROM {self._table(relation)} WHERE c{position} = ?",
            (encode_cell(value),),
        )
        return frozenset(
            tuple(decode_cell(cell) for cell in row[:arity]) for row in cursor
        )

    def scan(self, relation: str) -> Iterator[tuple]:
        arity = self.arity(relation)
        cursor = self._connection.execute(f"SELECT * FROM {self._table(relation)}")
        for row in cursor:
            if arity == 0:
                yield ()
            else:
                yield tuple(decode_cell(cell) for cell in row[:arity])

    def count(self, relation: str | None = None) -> int:
        if relation is not None:
            self.arity(relation)
            cursor = self._connection.execute(
                f"SELECT COUNT(*) FROM {self._table(relation)}"
            )
            return int(cursor.fetchone()[0])
        return sum(self.count(name) for name in self._arities)

    def clear(self, relation: str | None = None) -> None:
        if relation is not None:
            self.arity(relation)
            self._connection.execute(f"DELETE FROM {self._table(relation)}")
        else:
            for name in self._arities:
                self._connection.execute(f"DELETE FROM {self._table(name)}")
        self._commit()

    # -- lifecycle ----------------------------------------------------------
    def snapshot(self) -> dict[str, frozenset[tuple]]:
        """An immutable snapshot of every relation."""
        return {name: frozenset(self.scan(name)) for name in self._arities}

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "SQLiteInstance":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{name}[{self.count(name)}]" for name in sorted(self._arities))
        return f"SQLiteInstance({parts})"
