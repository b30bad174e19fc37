"""Bottom-up (naive and semi-naive) evaluation of datalog programs.

The evaluator works over a :class:`Database`, a mutable mapping from predicate
names to sets of ground tuples.  Values inside tuples may be any hashable
Python scalars plus ground :class:`~repro.datalog.ast.SkolemTerm` instances,
which play the role of labelled nulls produced by existential variables of
schema mappings.

Negation is handled by stratifying the program first
(:mod:`repro.datalog.stratification`) and evaluating strata in order, so that
a negated atom is only ever evaluated against a fully computed relation.

Since the compiled-execution refactor, this module no longer interprets rule
bodies itself: rules are compiled once into generated kernels
(:mod:`repro.datalog.plan`) and executed by the shared engine
(:mod:`repro.datalog.executor`) that also powers incremental maintenance and
provenance recording.  :class:`Database` pre-builds the column indexes a
compiled program's plans demand instead of waiting for the first probe.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Mapping, Optional

from .ast import Fact, Program
from .executor import ExecutionStats, run_program
from .indexing import Bucket, ColumnIndexes, build_column_index, index_discard, index_insert
from .plan import compile_program

_EMPTY_SET: frozenset = frozenset()


class Database:
    """A mutable relational database: predicate name -> set of ground tuples.

    Hash indexes on individual columns keep join probes near-linear in the
    number of matching tuples.  They are pre-built for every ``(predicate,
    position)`` a compiled plan can probe (:meth:`ensure_indexes`), built
    lazily for ad-hoc :meth:`lookup` calls, and maintained on every
    insert/delete afterwards.
    """

    def __init__(self, facts: Optional[Iterable[Fact]] = None) -> None:
        self._relations: dict[str, set[tuple]] = defaultdict(set)
        #: predicate -> position -> value -> bucket of tuples (see :mod:`.indexing`).
        self._indexes: dict[str, ColumnIndexes] = {}
        if facts is not None:
            for fact in facts:
                self.add_fact(fact)

    @classmethod
    def from_dict(cls, relations: Mapping[str, Iterable[tuple]]) -> "Database":
        """Build a database from ``{predicate: iterable of tuples}``."""
        database = cls()
        for predicate, tuples in relations.items():
            for values in tuples:
                database.add(predicate, tuple(values))
        return database

    def add(self, predicate: str, values: tuple) -> bool:
        """Insert a tuple; returns True when it was not already present."""
        relation = self._relations[predicate]
        values = tuple(values)
        if values in relation:
            return False
        relation.add(values)
        positions = self._indexes.get(predicate)
        if positions:
            index_insert(positions, values)
        return True

    def add_many(self, predicate: str, rows: Iterable[tuple]) -> list[tuple]:
        """Bulk :meth:`add` of ready-made tuples; returns the genuinely new ones.

        Hoists the relation/index lookups out of the per-tuple loop — the
        set-at-a-time executor promotes thousands of derived tuples per
        round and the per-call overhead of :meth:`add` is measurable there.
        """
        relation = self._relations[predicate]
        positions = self._indexes.get(predicate)
        fresh: list[tuple] = []
        append = fresh.append
        add = relation.add
        contains = relation.__contains__
        for values in rows:
            if contains(values):
                continue
            add(values)
            append(values)
            if positions:
                index_insert(positions, values)
        return fresh

    def add_fact(self, fact: Fact) -> bool:
        return self.add(fact.predicate, fact.values)

    def remove(self, predicate: str, values: tuple) -> bool:
        """Remove a tuple; returns True when it was present.

        Index buckets it empties are dropped entirely, so long delete-heavy
        runs do not accumulate empty buckets per historical key.
        """
        relation = self._relations.get(predicate)
        if relation is None:
            return False
        values = tuple(values)
        if values not in relation:
            return False
        relation.remove(values)
        positions = self._indexes.get(predicate)
        if positions:
            index_discard(positions, values)
        return True

    def _build_index(self, predicate: str, position: int) -> dict[object, Bucket]:
        buckets = build_column_index(self._relations.get(predicate, ()), position)
        self._indexes.setdefault(predicate, {})[position] = buckets
        return buckets

    def ensure_indexes(self, demanded: Iterable[tuple[str, int]]) -> None:
        """Pre-build the column indexes a compiled program's plans will probe."""
        for predicate, position in demanded:
            self.column_index(predicate, position)

    def column_index(self, predicate: str, position: int) -> dict[object, Bucket]:
        """The live index of ``predicate``'s column ``position``: value ->
        bucket of tuples, built the first time it is asked for.

        Executor-internal: a kernel fetches each index it probes once per
        call.  A bucket is a tuple of rows or, past a small bound, a set, so
        callers only iterate it; nothing is copied, so callers must not
        mutate the database while reading it (rule firing materialises its
        results before any insertion, so plan execution never does).
        """
        positions = self._indexes.get(predicate)
        buckets = positions.get(position) if positions is not None else None
        if buckets is None:
            buckets = self._build_index(predicate, position)
        return buckets

    def rows(self, predicate: str) -> set[tuple]:
        """The live tuple set of ``predicate`` (executor-internal; do not mutate)."""
        return self._relations.get(predicate, _EMPTY_SET)

    def lookup(self, predicate: str, position: int, value: object) -> frozenset[tuple]:
        """Tuples of ``predicate`` whose column ``position`` equals ``value``.

        Builds (and afterwards maintains) a hash index on that column the
        first time it is probed.
        """
        return frozenset(self.column_index(predicate, position).get(value, ()))

    def contains(self, predicate: str, values: tuple) -> bool:
        relation = self._relations.get(predicate)
        return relation is not None and tuple(values) in relation

    def relation(self, predicate: str) -> frozenset[tuple]:
        """A snapshot of the tuples currently stored for ``predicate``."""
        return frozenset(self._relations.get(predicate, ()))

    def predicates(self) -> set[str]:
        return {name for name, rows in self._relations.items() if rows}

    def facts(self) -> Iterator[Fact]:
        for predicate, rows in self._relations.items():
            for values in rows:
                yield Fact(predicate, values)

    def count(self, predicate: Optional[str] = None) -> int:
        if predicate is not None:
            return len(self._relations.get(predicate, ()))
        return sum(len(rows) for rows in self._relations.values())

    def copy(self) -> "Database":
        clone = Database()
        for predicate, rows in self._relations.items():
            clone._relations[predicate] = set(rows)
        return clone

    def merge(self, other: "Database") -> int:
        """Add every tuple of ``other``; returns the number of new tuples."""
        added = 0
        for predicate, rows in other._relations.items():
            for values in rows:
                if self.add(predicate, values):
                    added += 1
        return added

    def diff(self, other: "Database") -> "Database":
        """Tuples present in ``self`` but not in ``other``."""
        result = Database()
        for predicate, rows in self._relations.items():
            missing = rows - other._relations.get(predicate, set())
            if missing:
                result._relations[predicate] = set(missing)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {k: v for k, v in self._relations.items() if v}
        theirs = {k: v for k, v in other._relations.items() if v}
        return mine == theirs

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"{predicate}: {len(rows)} tuples"
            for predicate, rows in sorted(self._relations.items())
            if rows
        ]
        return "Database(" + ", ".join(parts) + ")"


def evaluate_program(
    program: Program,
    database: Database,
    max_iterations: int = 0,
    copy: bool = True,
    stats: Optional[ExecutionStats] = None,
) -> Database:
    """Evaluate ``program`` over ``database`` and return the resulting database.

    The input database is not modified unless ``copy=False``.  Negation is
    supported through stratification; an unstratifiable program raises
    :class:`~repro.errors.StratificationError`.  The program is compiled
    once (cached across calls by structural identity) and executed through
    the executor in :mod:`repro.datalog.executor`.
    """
    compiled = compile_program(program)
    working = database.copy() if copy else database
    run_program(compiled, working, stats=stats, max_iterations=max_iterations)
    return working


def derived_tuples(
    program: Program, database: Database, max_iterations: int = 0
) -> Database:
    """Return only the tuples added by evaluating ``program`` (the IDB delta)."""
    result = evaluate_program(program, database, max_iterations=max_iterations)
    return result.diff(database)
