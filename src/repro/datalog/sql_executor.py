"""Set-at-a-time SQL pushdown execution backend.

The closure executor (:mod:`repro.datalog.executor`) fires compiled join
plans tuple-at-a-time in Python; every semi-naive round pays interpreter
overhead per binding.  This module compiles each rule of a
:class:`~repro.datalog.plan.CompiledProgram` to SQL instead and runs the
whole semi-naive iteration *inside* SQLite:

* every ``(predicate, arity)`` pair becomes two tables — ``rel`` (the
  full relation, a rowid table with a UNIQUE constraint over the tuple)
  and ``stg`` (this round's candidate heads, an unkeyed append-only
  heap) — with one untyped column per position
  holding *natively typed* cells: ints, bools and integral floats become
  INTEGER, strings become TEXT verbatim, and only the rare cells SQLite
  has no native shape for (``None``, labelled nulls, non-integral floats,
  ints beyond 64 bits) become tagged BLOBs.  The mapping is canonical with
  respect to Python equality (``1 == True == 1.0`` all map to INTEGER 1,
  and no cell ever maps to SQL NULL), so native ``=`` *is* Python
  equality and scalar cells cross the Python/SQLite boundary with no
  serialisation at all — the encode/decode tax dominated the profile of
  an earlier JSON-encoded TEXT scheme;
* a rule's plain plan and each of its per-position delta plans become one
  ``INSERT INTO stg SELECT ...`` statement each: positive atoms are the
  FROM list, repeated variables and constants become WHERE equalities,
  negated atoms become ``NOT EXISTS`` anti-joins, comparisons become
  WHERE clauses (ordering comparisons mirror Python's
  ``TypeError -> False`` semantics through a ``typeof`` CASE), and skolem
  head terms are assembled in the SELECT list by concatenation that
  reproduces the tagged-BLOB bytes exactly;
* semi-naive deltas are **rowid watermarks**, not separate tables:
  promotion appends new rows to ``rel`` monotonically, so "the tuples new
  in the last round" is just a ``lo < rowid <= hi`` window over the
  relation itself.  A delta statement's delta atom carries the window
  condition, earlier positive atoms carry ``rowid <= lo`` ceilings (so
  per-position delta statements stay disjoint), and each round promotes
  ``stg`` into ``rel`` with a single ``INSERT ... ON CONFLICT DO NOTHING
  RETURNING`` per head relation — the UNIQUE constraint is the novelty
  check and the returned rows are the next window.  The loop repeats
  while any window is non-empty.

Provenance recording rides along: with a recorder attached, the statements
additionally SELECT the matched body rows of every firing, and the backend
streams the cursor through the ordinary recorder hook, one call per fetched
batch of firings — the same
derivation *set* the Python executor records (each derivation fires in the
round where its newest body tuple is in the delta; the graph deduplicates),
so databases and provenance polynomials are identical across backends.
Per-round firing *counts* may differ (the SQL rounds are staged strictly
while the closure executor sees intra-round insertions); differential tests
must never compare raw :class:`ExecutionStats`.

Constructs SQL cannot express — skolem terms in positive body atoms (the
structural matcher binds variables inside labelled nulls) and arity-0
atoms — make the backend fall back to the Python executor for the *whole
program*, so a program always runs on exactly one strategy.

Known numeric edges (shared with nothing the generators produce): ordering
comparisons read ints beyond 64 bits through a REAL cast, and non-finite
floats are not comparable in SQL.
"""

from __future__ import annotations

import hashlib
import re
import sqlite3
from collections import OrderedDict, defaultdict
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterable, Optional

from ..errors import DatalogError, StorageError
from ..obs import NULL_SPAN
from .ast import Atom, Comparison, Constant, Rule, SkolemTerm, Variable
from .executor import (
    ExecutionStats,
    PythonExecutionBackend,
    Recorder,
)
from .plan import CompiledProgram, CompiledRule, triggered

_SLUG_RE = re.compile(r"[^0-9a-z]+")

#: Rows fetched per batch when streaming recorder-mode SELECTs.
_RECORDER_BATCH = 512

#: Compiled-SQL cache entries kept per backend (FIFO, like the plan caches).
_PROGRAM_CACHE_SIZE = 64

#: Decoded-cell memo entries kept per backend (cleared wholesale when full).
_DECODE_CACHE_SIZE = 1 << 16

_MISSING = object()


@lru_cache(maxsize=4096)
def _table_name(kind: str, predicate: str, arity: int) -> str:
    """A quoted, collision-free table name for one ``(predicate, arity)``.

    Predicate names are arbitrary (``Alaska.OPS!pub``, ``Σ1.R``) and SQLite
    identifiers are case-insensitive, so the readable slug is only a hint;
    uniqueness comes from the digest over the exact predicate and arity.
    """
    slug = _SLUG_RE.sub("_", predicate.lower()).strip("_")[:24] or "rel"
    digest = hashlib.md5(f"{predicate}#{arity}".encode("utf-8")).hexdigest()[:8]
    return f'"{kind}_{slug}_{arity}_{digest}"'


def _placeholders(arity: int) -> str:
    return ", ".join("?" for _ in range(arity))


# ---------------------------------------------------------------------------
# Native cell mapping
# ---------------------------------------------------------------------------
#
# Python cell -> SQLite value, canonical with respect to Python equality:
#
#   int / bool / integral float  ->  INTEGER        (1 == True == 1.0)
#   str                          ->  TEXT verbatim
#   int beyond 64 bits           ->  BLOB  b"i" + decimal digits
#   non-integral float           ->  BLOB  b"f" + repr bytes
#   None                         ->  BLOB  b"n"
#   SkolemTerm                   ->  BLOB  b"s" + netstring(function) +
#                                          netstring(arg) per argument
#
# A netstring is ``<payload byte length>:<payload>``; a payload is a tagged
# byte string (``t`` + utf-8 for strings, ``i`` + decimal for integers, and
# the BLOB encodings above verbatim — they are already tagged).  Length
# prefixes make nesting unambiguous without escaping, and keep every BLOB
# valid UTF-8, which is what lets the SELECT list rebuild the same bytes by
# plain concatenation.  No cell ever maps to SQL NULL, so native ``=`` has
# exactly Python's equality semantics.

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _net(payload: bytes) -> bytes:
    return b"%d:%s" % (len(payload), payload)


def _skolem_payload(value: object) -> bytes:
    """The tagged payload of one skolem argument."""
    cell = _to_sql(value)
    kind = type(cell)
    if kind is int:
        return b"i%d" % cell
    if kind is str:
        return b"t" + cell.encode("utf-8")
    return cell  # tagged BLOB already


def _skolem_blob(term: SkolemTerm) -> bytes:
    parts = [b"s", _net(b"t" + term.function.encode("utf-8"))]
    for argument in term.arguments:
        parts.append(_net(_skolem_payload(argument)))
    return b"".join(parts)


def _to_sql(value: object):
    """Map one cell value to its canonical native SQLite value."""
    kind = type(value)
    if kind is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            return value
        return b"i%d" % value
    if kind is str:
        return value
    if kind is bool:
        return int(value)
    if kind is float:
        if value.is_integer():
            integral = int(value)
            if _INT64_MIN <= integral <= _INT64_MAX:
                return integral
            return b"i%d" % integral
        return b"f" + repr(value).encode("ascii")
    if value is None:
        return b"n"
    if kind is SkolemTerm:
        return _skolem_blob(value)
    raise StorageError(
        f"unsupported cell value of type {type(value).__name__}: {value!r}"
    )


def _parse_skolem(blob: bytes, start: int = 0) -> SkolemTerm:
    # Hot path: every *new* skolem blob a promotion returns is parsed
    # exactly once (then memoised), so this loop is written for speed —
    # inlined tag dispatch.  The term itself goes through the constructor,
    # which computes the hash labelled nulls carry.
    payloads = []
    append = payloads.append
    find = blob.find
    position = start + 1  # skip the b"s" tag
    end = len(blob)
    while position < end:
        colon = find(b":", position)
        body = colon + 1
        position = body + int(blob[position:colon])
        append(blob[body:position])
    arguments = []
    for payload in payloads[1:]:
        tag = payload[0]
        if tag == 116:  # b"t": text
            arguments.append(payload[1:].decode("utf-8"))
        elif tag == 105:  # b"i": integer beyond 64 bits
            arguments.append(int(payload[1:]))
        else:
            arguments.append(_from_blob(payload))
    return SkolemTerm(payloads[0][1:].decode("utf-8"), tuple(arguments))


def _from_blob(cell: bytes) -> object:
    tag = cell[:1]
    if tag == b"s":
        return _parse_skolem(cell)
    if tag == b"n":
        return None
    if tag == b"i":
        return int(cell[1:])
    if tag == b"f":
        return float(cell[1:])
    raise StorageError(f"cannot decode stored cell {cell!r}")


class _Unsupported(Exception):
    """Raised during SQL compilation for constructs SQL cannot express."""


class _Fallback:
    """Marker cached in place of compiled SQL: run this program on Python."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason


class _Statement:
    """One compiled ``INSERT ... SELECT`` (plus its recorder-mode variant).

    ``bounds`` lists the rowid-watermark parameters the statement consumes
    at execution time, in placeholder order: ``((predicate, arity), mode)``
    with mode ``"window"`` (two params, ``rowid > lo AND rowid <= hi`` — the
    atom reads exactly the current delta) or ``"ceiling"`` (one param,
    ``rowid <= lo`` — the atom reads the relation *minus* the current
    delta, keeping per-position delta statements disjoint).

    ``insert_sql`` is the non-recorder form: it inserts the joined heads
    straight into the head *relation* (``ON CONFLICT DO NOTHING
    RETURNING``), so the genuinely new rows come back without ever touching
    the stage heap.  ``select_sql`` is the recorder form, which must see
    every firing (not just novel heads) and therefore streams the matched
    body rows out and stages heads separately.
    """

    __slots__ = ("insert_sql", "select_sql", "params", "bounds")

    def __init__(
        self, insert_sql: str, select_sql: str, params: tuple, bounds: tuple = ()
    ) -> None:
        self.insert_sql = insert_sql
        self.select_sql = select_sql
        self.params = params
        self.bounds = bounds


class _RuleSQL:
    """All SQL artefacts of one rule: the plain plan and every delta plan."""

    __slots__ = (
        "rule",
        "label",
        "head_predicate",
        "head_arity",
        "head_key",
        "source_layout",
        "stage_insert_sql",
        "plain",
        "deltas",
    )

    def __init__(self, rule: Rule) -> None:
        self.rule = rule
        self.label = rule.label or f"rule:{rule.head.predicate}"
        self.head_predicate = rule.head.predicate
        self.head_arity = len(rule.head.terms)
        self.head_key = (self.head_predicate, self.head_arity)
        #: ``(predicate, arity)`` per positive body atom, in body order —
        #: the recorder-mode row layout after the head columns.
        self.source_layout: list[tuple[str, int]] = []
        self.stage_insert_sql = ""
        self.plain: Optional[_Statement] = None
        self.deltas: dict[int, _Statement] = {}


class _ProgramSQL:
    """A whole program compiled to SQL, stratum by stratum."""

    __slots__ = ("strata", "table_keys", "keys_by_predicate", "index_keys")

    def __init__(self) -> None:
        self.strata: list[list[_RuleSQL]] = []
        self.table_keys: set[tuple[str, int]] = set()
        self.keys_by_predicate: dict[str, list[tuple[str, int]]] = {}
        #: ``(predicate, arity, column)`` triples the statements join
        #: through — each gets a secondary index on the ``rel`` table, or
        #: SQLite rebuilds an AUTOMATIC index on every single execution.
        self.index_keys: set[tuple[str, int, int]] = set()


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

def _netstring_expr(operand_sql: str, operand_params: tuple) -> tuple[str, tuple]:
    """``<byte length>:<payload>`` of one skolem argument, built in SQL.

    The tagged payload is reconstructed per the argument's *runtime* type
    (a column holds whatever the row carries): INTEGER -> ``i`` + decimal,
    TEXT -> ``t`` + the string, BLOB -> the already-tagged bytes.  SQLite's
    ``||`` yields TEXT, so byte lengths are taken through a BLOB cast.
    """
    payload = (
        f"CASE typeof({operand_sql}) "
        f"WHEN 'integer' THEN 'i' || CAST({operand_sql} AS TEXT) "
        f"WHEN 'text' THEN 't' || {operand_sql} "
        f"ELSE CAST({operand_sql} AS TEXT) END"
    )
    sql = f"CAST(LENGTH(CAST(({payload}) AS BLOB)) AS TEXT) || ':' || ({payload})"
    return (sql, operand_params * 4)


def _skolem_expr(term: SkolemTerm, bindings: dict) -> tuple[str, tuple]:
    """A concatenation expression producing ``_skolem_blob(term)``'s bytes.

    The instantiated term is assembled as TEXT (every tagged encoding is
    valid UTF-8) and cast to BLOB at the end, matching the Python-side
    encoding byte for byte so SQL-built labelled nulls dedup against
    Python-inserted ones.
    """
    prefix = b"s" + _net(b"t" + term.function.encode("utf-8"))
    if not term.arguments:
        return ("?", (prefix,))
    parts = ["?"]
    params: list = [prefix.decode("utf-8")]
    for argument in term.arguments:
        operand_sql, operand_params = _operand(argument, bindings)
        net_sql, net_params = _netstring_expr(operand_sql, operand_params)
        parts.append(net_sql)
        params.extend(net_params)
    return ("CAST((" + " || ".join(parts) + ") AS BLOB)", tuple(params))


def _operand(term, bindings: dict) -> tuple[str, tuple]:
    """``(sql, params)`` for one term used as a native-cell operand."""
    if isinstance(term, Variable):
        column = bindings.get(term)
        if column is None:
            raise _Unsupported(f"variable {term} is not bound by a plain positive slot")
        return column, ()
    if isinstance(term, Constant):
        return "?", (_to_sql(term.value),)
    if isinstance(term, SkolemTerm):
        return _skolem_expr(term, bindings)
    raise _Unsupported(f"unsupported term {term!r}")


def _numeric_guard(operand_sql: str) -> str:
    """Is this cell a number?  Native INTEGER, or a ``f``/``i`` tagged BLOB."""
    return (
        f"(typeof({operand_sql}) = 'integer' OR (typeof({operand_sql}) = 'blob' "
        f"AND substr({operand_sql}, 1, 1) IN (x'66', x'69')))"
    )


def _numeric_value(operand_sql: str) -> str:
    """The numeric value of a cell that passed :func:`_numeric_guard`."""
    return (
        f"CASE WHEN typeof({operand_sql}) = 'integer' THEN {operand_sql} "
        f"ELSE CAST(substr({operand_sql}, 2) AS REAL) END"
    )


def _comparison_condition(comparison: Comparison, bindings: dict) -> tuple[str, tuple]:
    left_sql, left_params = _operand(comparison.left, bindings)
    right_sql, right_params = _operand(comparison.right, bindings)
    op = comparison.op
    if op in ("=", "=="):
        # The canonical native mapping makes ``=`` coincide with Python ``==``.
        return (f"{left_sql} = {right_sql}", left_params + right_params)
    if op == "!=":
        return (f"{left_sql} != {right_sql}", left_params + right_params)
    # Mirror Comparison.evaluate: numbers compare numerically (the rare
    # tagged-BLOB numbers are read back through a REAL cast), strings
    # lexicographically (SQLite's binary TEXT collation is UTF-8 memcmp,
    # which preserves code-point order, i.e. Python's), every other pairing
    # — mixed types, labelled nulls, None — is False (Python's TypeError).
    sql = (
        f"(CASE WHEN {_numeric_guard(left_sql)} AND {_numeric_guard(right_sql)} "
        f"THEN {_numeric_value(left_sql)} {op} {_numeric_value(right_sql)} "
        f"WHEN typeof({left_sql}) = 'text' AND typeof({right_sql}) = 'text' "
        f"THEN {left_sql} {op} {right_sql} ELSE 0 END)"
    )
    # Parameters repeat once per textual ``?`` occurrence, in emission order:
    # guards (L*3, R*3), numeric values (L*3, R*3), text typeofs and the
    # text comparison (L, R, L, R).
    params = (
        left_params * 3 + right_params * 3
        + left_params * 3 + right_params * 3
        + left_params + right_params
        + left_params + right_params
    )
    return (sql, params)


def _negation_condition(atom: Atom, bindings: dict) -> tuple[str, tuple]:
    if not atom.terms:
        raise _Unsupported("arity-0 negated atom")
    table = _table_name("rel", atom.predicate, len(atom.terms))
    conditions = []
    params: list[str] = []
    for column, term in enumerate(atom.terms):
        sql, term_params = _operand(term, bindings)
        conditions.append(f"n.c{column} = {sql}")
        params.extend(term_params)
    inner = " AND ".join(conditions)
    return (f"NOT EXISTS (SELECT 1 FROM {table} AS n WHERE {inner})", tuple(params))


# ---------------------------------------------------------------------------
# Rule and program compilation
# ---------------------------------------------------------------------------

def _compile_rule_sql(compiled: CompiledRule) -> _RuleSQL:
    rule = compiled.rule
    entry = _RuleSQL(rule)
    if not rule.head.terms:
        raise _Unsupported("arity-0 head atom")

    positives: list[tuple[int, Atom]] = [
        (position, literal)
        for position, literal in enumerate(rule.body)
        if isinstance(literal, Atom) and not literal.negated
    ]

    bindings: dict[Variable, str] = {}
    conditions: list[tuple[str, tuple]] = []
    for alias, (_, atom) in enumerate(positives):
        if not atom.terms:
            raise _Unsupported("arity-0 positive body atom")
        entry.source_layout.append((atom.predicate, len(atom.terms)))
        for column, term in enumerate(atom.terms):
            column_sql = f"a{alias}.c{column}"
            if isinstance(term, Variable):
                bound = bindings.get(term)
                if bound is None:
                    bindings[term] = column_sql
                else:
                    conditions.append((f"{column_sql} = {bound}", ()))
            elif isinstance(term, Constant):
                conditions.append((f"{column_sql} = ?", (_to_sql(term.value),)))
            else:
                # A skolem term in a positive atom binds variables through
                # structural matching on the labelled null — the one plan
                # construct with no SQL equivalent here.
                raise _Unsupported("skolem term in positive body atom")

    for literal in rule.body:
        if isinstance(literal, Comparison):
            conditions.append(_comparison_condition(literal, bindings))
        elif isinstance(literal, Atom) and literal.negated:
            conditions.append(_negation_condition(literal, bindings))

    head_sqls = []
    head_params: list[str] = []
    for term in rule.head.terms:
        sql, term_params = _operand(term, bindings)
        head_sqls.append(sql)
        head_params.extend(term_params)

    where_sql = " AND ".join(sql for sql, _ in conditions) or "1"
    where_params: list[str] = []
    for _, condition_params in conditions:
        where_params.extend(condition_params)
    select_head = ", ".join(head_sqls)
    source_columns = ", ".join(
        f"a{alias}.c{column}"
        for alias, (_, atom) in enumerate(positives)
        for column in range(len(atom.terms))
    )
    stage = _table_name("stg", entry.head_predicate, entry.head_arity)
    head_rel = _table_name("rel", entry.head_predicate, entry.head_arity)
    head_columns = ", ".join(f"c{i}" for i in range(entry.head_arity))
    entry.stage_insert_sql = (
        f"INSERT INTO {stage} VALUES ({_placeholders(entry.head_arity)})"
    )
    params = tuple(head_params + where_params)

    def _statement(delta_position: Optional[int]) -> _Statement:
        parts: dict[int, str] = {}
        bound_sqls: list[str] = []
        bounds: list[tuple] = []
        delta_alias = None
        for alias, (position, atom) in enumerate(positives):
            table = _table_name("rel", atom.predicate, len(atom.terms))
            parts[alias] = f"{table} AS a{alias}"
            key = (atom.predicate, len(atom.terms))
            if position == delta_position:
                # The delta of a relation is a rowid *window* over its own
                # table: promotion appends new rows monotonically, so
                # ``lo < rowid <= hi`` selects exactly the tuples new in the
                # last round — no separate delta table, no copy.
                delta_alias = alias
                bound_sqls.append(f"a{alias}.rowid > ? AND a{alias}.rowid <= ?")
                bounds.append((key, "window"))
            elif delta_position is not None and position < delta_position:
                # Disjoint semi-naive deltas: atoms before the delta
                # position read ``rel minus delta`` (everything at or below
                # the window floor), so a combination whose tuples span
                # several delta atoms fires in exactly one statement instead
                # of once per delta atom.
                bound_sqls.append(f"a{alias}.rowid <= ?")
                bounds.append((key, "ceiling"))
        if delta_alias is not None:
            # Semi-naive join-order heuristic, enforced: the delta window is
            # (almost always) the smallest relation in the join, but SQLite
            # has no statistics on these ever-changing tables and will
            # happily drive the loop from a full relation instead — an
            # O(|rel|) scan per round that turns warm batches superlinear.
            # CROSS JOIN pins the nesting order: delta outermost, then a
            # greedy walk over the remaining atoms, always preferring one
            # that shares a variable with those already joined (so every
            # inner table is reached by an index probe, never a cartesian
            # blow-up), falling back to body order when the join graph is
            # genuinely disconnected.
            atom_vars: list[set] = [
                {term for term in atom.terms if isinstance(term, Variable)}
                for _, atom in positives
            ]
            order = [delta_alias]
            bound = set(atom_vars[delta_alias])
            remaining = [alias for alias in parts if alias != delta_alias]
            while remaining:
                pick = next(
                    (alias for alias in remaining if atom_vars[alias] & bound),
                    remaining[0],
                )
                order.append(pick)
                bound |= atom_vars[pick]
                remaining.remove(pick)
            from_sql = " FROM " + " CROSS JOIN ".join(
                parts[alias] for alias in order
            )
        else:
            from_sql = (
                (" FROM " + ", ".join(parts[alias] for alias in sorted(parts)))
                if parts
                else ""
            )
        # Watermark conditions go *last* so their runtime-appended parameters
        # line up after the statement's static ones.
        where = " AND ".join([where_sql] + bound_sqls) if bound_sqls else where_sql
        # No DISTINCT, no staging: the joined heads land straight in the
        # head relation, whose UNIQUE constraint rejects known rows (and
        # duplicates within this round's output), and RETURNING hands each
        # genuinely new row back exactly once.  (``WHERE ...`` is always
        # present, which doubles as the upsert-clause disambiguator.)
        insert_sql = (
            f"INSERT INTO {head_rel} "
            f"SELECT {select_head}{from_sql} WHERE {where} "
            f"ON CONFLICT DO NOTHING RETURNING {head_columns}"
        )
        selected = select_head if not source_columns else f"{select_head}, {source_columns}"
        select_sql = f"SELECT {selected}{from_sql} WHERE {where}"
        return _Statement(insert_sql, select_sql, params, tuple(bounds))

    entry.plain = _statement(None)
    for position in compiled.positive_positions:
        entry.deltas[position] = _statement(position)
    return entry


def _collect_index_keys(rule: Rule) -> set[tuple[str, int, int]]:
    """Join columns of one rule's positive atoms, minus the UNIQUE prefix.

    A column is a join key if its term is a constant or a variable shared
    with another slot.  Column 0 is skipped (the UNIQUE composite serves it
    as a prefix), as are negated atoms (anti-joins probe the full tuple, so
    the composite covers them too).
    """
    keys: set[tuple[str, int, int]] = set()
    occurrences: dict[Variable, int] = {}
    positives = [
        literal
        for literal in rule.body
        if isinstance(literal, Atom) and not literal.negated
    ]
    for atom in positives:
        for term in atom.terms:
            if isinstance(term, Variable):
                occurrences[term] = occurrences.get(term, 0) + 1
    for atom in positives:
        arity = len(atom.terms)
        for column, term in enumerate(atom.terms):
            if column == 0:
                continue
            if isinstance(term, Constant) or (
                isinstance(term, Variable) and occurrences.get(term, 0) > 1
            ):
                keys.add((atom.predicate, arity, column))
    return keys


def _compile_program_sql(compiled: CompiledProgram):
    """Compile a whole program to SQL, or a :class:`_Fallback` marker."""
    program = _ProgramSQL()
    try:
        for stratum in compiled.strata:
            entries = [_compile_rule_sql(rule) for rule in stratum]
            program.strata.append(entries)
            for entry in entries:
                program.index_keys.update(_collect_index_keys(entry.rule))
    except _Unsupported as unsupported:
        return _Fallback(str(unsupported))
    for stratum in program.strata:
        for entry in stratum:
            program.table_keys.add(entry.head_key)
            program.table_keys.update(entry.source_layout)
            for literal in entry.rule.body:
                if isinstance(literal, Atom) and literal.negated:
                    program.table_keys.add((literal.predicate, len(literal.terms)))
    for key in program.table_keys:
        program.keys_by_predicate.setdefault(key[0], []).append(key)
    return program


def rule_fallback_reason(rule: Rule) -> Optional[str]:
    """Why the SQL backend cannot compile ``rule``, or ``None`` if it can.

    This is the static-analysis twin of the runtime fallback in
    :func:`_compile_program_sql`: one uncompilable rule makes the backend run
    the whole program on the Python executor.  The analyzer surfaces the
    per-rule reasons as ``CDSS013`` diagnostics, and ``cdss.explain()``
    appends them to its rendering.
    """
    from .plan import compile_rule

    try:
        _compile_rule_sql(compile_rule(rule))
    except _Unsupported as unsupported:
        return str(unsupported)
    return None


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

class SQLExecutionBackend:
    """Runs compiled programs set-at-a-time inside an in-memory SQLite mirror.

    The backend is *stateful*: it keeps a persistent mirror of the database
    it maintains, so incremental propagation only ships the delta instead of
    reloading the world per call.  :class:`~repro.datalog.incremental.
    IncrementalEngine` reports out-of-band deletions through
    :meth:`notify_removals`; a per-predicate count guard triggers a full
    reload whenever the mirror could have drifted, turning missed
    notifications into a performance bug rather than a wrongness bug.
    """

    name = "sql"

    #: Joins run inside SQLite; the engine database's per-column hash
    #: indexes are never probed, so callers need not pre-build them.
    uses_database_indexes = False

    #: Installed (as an instance attribute) by IncrementalEngine when the
    #: owning system carries an Observability holder.
    observability = None

    def _tracer(self):
        obs = self.observability
        return obs.active_tracer() if obs is not None else None

    def _span(self, tracer, index: int, stratum) -> object:
        if tracer is None:
            return NULL_SPAN
        return tracer.span("exchange.stratum", index=index, rules=len(stratum))

    def __init__(self) -> None:
        self._connection = sqlite3.connect(":memory:")
        self._connection.isolation_level = None  # autocommit; purely in-memory
        # Larger pages mean fewer b-tree levels and fewer page allocations
        # for the same data — a measurable win on the write-heavy promote
        # path.  Must run before any table exists.
        self._connection.execute("PRAGMA page_size=8192")
        self._python = PythonExecutionBackend()
        self._programs: "OrderedDict[tuple, object]" = OrderedDict()
        self._created: set[str] = set()
        self._indexed: set[str] = set()
        self._db_ref = None
        self._program_key: Optional[tuple] = None
        self._counts: dict[str, int] = {}
        #: Rowid high-water mark per ``(predicate, arity)`` — the max rowid
        #: of the relation table the last time its delta was consumed.
        self._marks: dict[tuple[str, int], int] = {}
        #: Current delta window per key: ``(lo, hi)`` means the tuples with
        #: ``lo < rowid <= hi`` are new since the previous round.  Keys
        #: absent here have an empty delta this round.
        self._windows: dict[tuple[str, int], tuple[int, int]] = {}
        #: Decode memos: derived layers repeat whole rows (copy rules
        #: re-derive the same tuple into pub/local/peer relations) and
        #: individual tagged cells (skolem oids recur everywhere), so most
        #: promoted rows decode from a single dict hit.
        self._decoded: dict[tuple, tuple] = {}
        self._cells: dict[bytes, object] = {}

    @contextmanager
    def _mirror_transaction(self):
        """Batch one entry point's mirror writes into a single transaction.

        Autocommit would open and close an implicit transaction around
        *every* statement of every semi-naive round — measurably slower
        even against an in-memory journal.  On failure the mirror rolls
        back and drops its database reference, so the count guard forces a
        clean reload on the next call.
        """
        self._connection.execute("BEGIN")
        try:
            yield
        except BaseException:
            self._connection.execute("ROLLBACK")
            self._db_ref = None
            raise
        self._connection.execute("COMMIT")

    # -- caches --------------------------------------------------------------
    def _program_for(self, compiled: CompiledProgram):
        key = tuple(rule.rule for stratum in compiled.strata for rule in stratum)
        entry = self._programs.get(key)
        if entry is None:
            entry = _compile_program_sql(compiled)
            self._programs[key] = entry
            if len(self._programs) > _PROGRAM_CACHE_SIZE:
                self._programs.popitem(last=False)
        return key, entry

    # -- mirror maintenance --------------------------------------------------
    def _create_table(self, name: str, arity: int, keyed: bool = True) -> None:
        if name in self._created:
            return
        # Untyped columns: no declared affinity, so bound values keep their
        # native storage class (INTEGER stays INTEGER, BLOB stays BLOB).
        # Relations are *rowid* tables with a UNIQUE constraint over the
        # whole tuple: insertion order is the semi-naive bookkeeping (the
        # monotonically growing rowid turns "new since the last round" into
        # a range condition), and the UNIQUE index doubles as both the
        # novelty check during promotion and the column-0 join probe.
        # Stage tables are unkeyed heaps: join output is appended blindly
        # (an O(1) rowid append per row beats a b-tree insert), and
        # duplicates are squeezed out during promotion by the relation's
        # UNIQUE constraint.
        columns = ", ".join(f"c{i} NOT NULL" for i in range(arity))
        if keyed:
            key = ", ".join(f"c{i}" for i in range(arity))
            self._connection.execute(
                f"CREATE TABLE IF NOT EXISTS {name} ({columns}, UNIQUE ({key}))"
            )
        else:
            self._connection.execute(
                f"CREATE TABLE IF NOT EXISTS {name} ({columns})"
            )
        self._created.add(name)


    def _ensure_tables(self, program: _ProgramSQL) -> None:
        for predicate, arity in program.table_keys:
            for kind in ("rel", "stg"):
                self._create_table(
                    _table_name(kind, predicate, arity), arity, keyed=kind != "stg"
                )
        for predicate, arity, column in program.index_keys:
            name = _table_name("rel", predicate, arity)
            index = f'"ix_{name.strip(chr(34))}_{column}"'
            if index in self._indexed:
                continue
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS {index} ON {name} (c{column})"
            )
            self._indexed.add(index)

    def _max_rowid(self, name: str) -> int:
        return self._connection.execute(
            f"SELECT COALESCE(MAX(rowid), 0) FROM {name}"
        ).fetchone()[0]

    def _load_mirror(self, program: _ProgramSQL, database) -> None:
        """Full reload: mirror := ``database`` restricted to the program's tables."""
        for name in self._created:
            self._connection.execute(f"DELETE FROM {name}")
        self._ensure_tables(program)
        counts: dict[str, int] = {}
        for predicate in database.predicates():
            rows = database.rows(predicate)
            counts[predicate] = len(rows)
            self._insert_rows(predicate, rows, kind="rel")
        # Reset the watermark bookkeeping: everything currently in a
        # relation is "old" until a caller stages a delta.
        self._windows.clear()
        self._marks = {
            key: self._max_rowid(_table_name("rel", key[0], key[1]))
            for key in program.table_keys
        }
        self._counts = counts
        self._db_ref = database

    def _insert_rows(self, predicate: str, rows: Iterable[tuple], kind: str) -> None:
        by_arity: dict[int, list[tuple]] = {}
        for row in rows:
            if len(row):
                by_arity.setdefault(len(row), []).append(row)
        for arity, bucket in by_arity.items():
            name = _table_name(kind, predicate, arity)
            if name not in self._created:
                continue  # No statement reads this (predicate, arity).
            self._connection.executemany(
                f"INSERT OR IGNORE INTO {name} VALUES ({_placeholders(arity)})",
                [self._encode_row(row) for row in bucket],
            )

    @staticmethod
    def _encode_row(row: tuple) -> list:
        return [_to_sql(value) for value in row]

    def _decode_row(self, row) -> tuple:
        # INTEGER and TEXT cells *are* their Python values; only tagged
        # BLOBs need decoding.  Most rows are all-scalar and pass through
        # untouched, and blob-carrying rows repeat wholesale — copy rules
        # re-derive the same tuple into pub/local/peer relations — so the
        # memo is keyed on the entire raw row.
        values = None
        for index, cell in enumerate(row):
            if type(cell) is not bytes:
                if values is not None:
                    values.append(cell)
                continue
            if values is None:
                cached = self._decoded.get(row)
                if cached is not None:
                    return cached
                values = list(row[:index])
            value = self._cells.get(cell, _MISSING)
            if value is _MISSING:
                value = _from_blob(cell)
                if len(self._cells) >= _DECODE_CACHE_SIZE:
                    self._cells.clear()
                self._cells[cell] = value
            values.append(value)
        if values is None:
            return row
        decoded = tuple(values)
        if len(self._decoded) >= _DECODE_CACHE_SIZE:
            self._decoded.clear()
        self._decoded[row] = decoded
        return decoded

    def _mirror_current(self, database, program_key, delta: dict) -> bool:
        """Count guard: does the mirror plus the pending delta match ``database``?"""
        if self._db_ref is not database or self._program_key != program_key:
            return False
        expected = dict(self._counts)
        for predicate, values in delta.items():
            expected[predicate] = expected.get(predicate, 0) + len(values)
        actual = {
            predicate: database.count(predicate) for predicate in database.predicates()
        }
        return actual == {p: n for p, n in expected.items() if n}

    def notify_removals(self, deleted: dict[str, set[tuple]]) -> None:
        if self._db_ref is None:
            return
        with self._mirror_transaction():
            self._apply_removals(deleted)

    def _apply_removals(self, deleted: dict[str, set[tuple]]) -> None:
        for predicate, values in deleted.items():
            by_arity: dict[int, list[tuple]] = {}
            for row in values:
                if len(row):
                    by_arity.setdefault(len(row), []).append(row)
            for arity, bucket in by_arity.items():
                name = _table_name("rel", predicate, arity)
                if name not in self._created:
                    continue
                condition = " AND ".join(f"c{i} = ?" for i in range(arity))
                self._connection.executemany(
                    f"DELETE FROM {name} WHERE {condition}",
                    [self._encode_row(row) for row in bucket],
                )
                # Deleting the max-rowid row lets SQLite reuse that rowid on
                # the next insert; a stale-high mark would then hide the new
                # row from its delta window.  Re-anchor the mark to reality.
                self._marks[(predicate, arity)] = self._max_rowid(name)
            self._counts[predicate] = self._counts.get(predicate, 0) - len(values)
        self._windows.clear()

    # -- round machinery -----------------------------------------------------
    def _stage_delta_tables(
        self, program: _ProgramSQL, delta: dict[str, set[tuple]], database=None
    ) -> None:
        """Open delta windows over the relations for an accumulated delta dict.

        When the delta covers the whole predicate (a fresh mirror's first
        batch) the window is simply the whole table — nothing is copied or
        re-encoded.  A *partial* delta over an already-loaded relation is
        the rare cold path (a stratum transition right after a reload): the
        delta rows are deleted and re-appended so they sit contiguously
        above the window floor.
        """
        self._windows.clear()
        marks = self._marks
        for predicate, values in delta.items():
            keys = [
                key
                for key in program.keys_by_predicate.get(predicate, ())
                if _table_name("rel", key[0], key[1]) in self._created
            ]
            if not keys:
                continue
            if database is not None and len(values) == database.count(predicate):
                for key in keys:
                    self._windows[key] = (0, marks.get(key, 0))
                continue
            by_arity: dict[int, list[tuple]] = {}
            for row in values:
                if len(row):
                    by_arity.setdefault(len(row), []).append(row)
            for key in keys:
                arity = key[1]
                bucket = by_arity.get(arity)
                if not bucket:
                    continue
                name = _table_name("rel", predicate, arity)
                encoded = [self._encode_row(row) for row in bucket]
                condition = " AND ".join(f"c{i} = ?" for i in range(arity))
                self._connection.executemany(
                    f"DELETE FROM {name} WHERE {condition}", encoded
                )
                lo = self._max_rowid(name)
                self._connection.executemany(
                    f"INSERT OR IGNORE INTO {name} VALUES ({_placeholders(arity)})",
                    encoded,
                )
                hi = self._max_rowid(name)
                self._windows[key] = (lo, hi)
                marks[key] = hi

    def _bound_params(self, bounds: tuple) -> list:
        """Flatten a statement's watermark spec into its runtime parameters."""
        params = []
        windows = self._windows
        marks = self._marks
        for key, mode in bounds:
            window = windows.get(key)
            if window is None:
                # Empty delta this round: the window collapses onto the
                # mark, and "relation minus delta" is the whole relation.
                mark = marks.get(key, 0)
                window = (mark, mark)
            if mode == "window":
                params.append(window[0])
                params.append(window[1])
            else:
                params.append(window[0])
        return params

    def _execute_statement(
        self,
        entry: _RuleSQL,
        statement: _Statement,
        recorder: Optional[Recorder],
        stats: Optional[ExecutionStats],
    ) -> None:
        params = statement.params
        if statement.bounds:
            params = params + tuple(self._bound_params(statement.bounds))
        if recorder is None:
            # Direct path: the statement inserted into the head relation
            # itself and returned the genuinely new rows.
            rows = self._connection.execute(statement.insert_sql, params).fetchall()
            if stats is not None and rows:
                # Set-at-a-time has no per-binding firings; count the
                # productive ones (rows newly derived).
                stats.rules_fired += len(rows)
            return rows
        cursor = self._connection.execute(statement.select_sql, params)
        head_arity = entry.head_arity
        # One recorder call per fetched batch: the firings are the decoded
        # ``(head, *source rows)`` column slices of each result row.
        slices = [slice(0, head_arity)]
        offset = head_arity
        for _, arity in entry.source_layout:
            slices.append(slice(offset, offset + arity))
            offset += arity
        signature = (entry.head_predicate, *(predicate for predicate, _ in entry.source_layout))
        decode = self._decode_row
        while True:
            rows = cursor.fetchmany(_RECORDER_BATCH)
            if not rows:
                break
            recorder(
                entry.label,
                signature,
                [tuple([decode(row[part]) for part in slices]) for row in rows],
            )
            self._connection.executemany(
                entry.stage_insert_sql, [row[:head_arity] for row in rows]
            )
            if stats is not None:
                stats.rules_fired += len(rows)

    def _fire_triggered(
        self,
        stratum: list[_RuleSQL],
        dispatch: dict,
        current: set[str],
        recorder: Optional[Recorder],
        stats: Optional[ExecutionStats],
        pending: Optional[dict[tuple[str, int], list]],
    ) -> set[tuple[str, int]]:
        """Run the delta statement of each ``(rule, position)`` pair a delta
        over ``current`` triggers; returns the head keys they wrote to.

        In direct mode (``pending`` given) the rows each statement inserted
        are collected there per head key for :meth:`_promote`.
        """
        touched: set[tuple[str, int]] = set()
        for rank, position, _ in triggered(dispatch, current):
            entry = stratum[rank]
            rows = self._execute_statement(entry, entry.deltas[position], recorder, stats)
            if pending is not None and rows:
                pending.setdefault(entry.head_key, []).extend(rows)
            touched.add(entry.head_key)
        return touched

    def _promote(
        self,
        program: _ProgramSQL,
        head_keys: set[tuple[str, int]],
        database,
        pending: Optional[dict[tuple[str, int], list]] = None,
    ) -> dict[tuple[str, int], list[tuple]]:
        """Close out a round; returns tuples actually new per head key.

        In direct (non-recorder) mode the statements already inserted the
        new rows into the head relations and ``pending`` carries what they
        returned; this only opens the delta windows and mirrors the rows
        back into the Python database.  In recorder mode the heads sit in
        the stage heaps and are pushed through the relations' UNIQUE
        constraints here (``WHERE true`` disambiguates the upsert clause
        for the parser), with RETURNING emitting each genuinely new row
        exactly once.
        """
        results: dict[tuple[str, int], list[tuple]] = {}
        # The previous round's deltas are consumed: close *every* window,
        # not just the promoted predicates' — the disjoint-delta ceiling
        # conditions read any atom's window, so a stale one would wrongly
        # suppress combinations in later rounds.
        self._windows.clear()
        marks = self._marks
        for key in head_keys:
            predicate, arity = key
            rel = _table_name("rel", predicate, arity)
            if pending is not None:
                rows = pending.get(key, ())
            else:
                stg = _table_name("stg", predicate, arity)
                columns = ", ".join(f"c{i}" for i in range(arity))
                rows = self._connection.execute(
                    f"INSERT INTO {rel} SELECT {columns} FROM {stg} WHERE true "
                    f"ON CONFLICT DO NOTHING RETURNING {columns}"
                ).fetchall()
                self._connection.execute(f"DELETE FROM {stg}")
            if not rows:
                results[key] = []
                continue
            # The new rows landed above the old max rowid, so the delta
            # *is* the rowid window they occupy.
            lo = marks.get(key, 0)
            hi = self._max_rowid(rel)
            self._windows[key] = (lo, hi)
            marks[key] = hi
            decode = self._decode_row
            new_values = database.add_many(
                predicate, [decode(row) for row in rows]
            )
            self._counts[predicate] = self._counts.get(predicate, 0) + len(new_values)
            results[key] = new_values
        return results

    # -- ExecutionBackend API ------------------------------------------------
    def run_program(
        self,
        compiled: CompiledProgram,
        database,
        recorder: Optional[Recorder] = None,
        stats: Optional[ExecutionStats] = None,
        max_iterations: int = 0,
    ) -> dict[str, set[tuple]]:
        program_key, program = self._program_for(compiled)
        if isinstance(program, _Fallback):
            self._db_ref = None
            self._python.observability = self.observability
            return self._python.run_program(
                compiled, database, recorder=recorder, stats=stats,
                max_iterations=max_iterations,
            )
        tracer = self._tracer()
        all_new: dict[str, set[tuple]] = {}
        with self._mirror_transaction():
            self._load_mirror(program, database)
            self._program_key = program_key
            direct = recorder is None
            for index, stratum in enumerate(program.strata):
                dispatch = compiled.dispatch[index]
                with self._span(tracer, index, stratum):
                    head_keys = {entry.head_key for entry in stratum}
                    pending = {} if direct else None
                    for entry in stratum:
                        rows = self._execute_statement(entry, entry.plain, recorder, stats)
                        if direct and rows:
                            pending.setdefault(entry.head_key, []).extend(rows)
                    new_rows = self._promote(program, head_keys, database, pending)
                    current = set()
                    for (predicate, _), values in new_rows.items():
                        if values:
                            current.add(predicate)
                            all_new.setdefault(predicate, set()).update(values)
                    iterations = 1
                    while current:
                        if max_iterations and iterations >= max_iterations:
                            raise DatalogError(
                                f"evaluation did not converge within {max_iterations} iterations"
                            )
                        if stats is not None:
                            stats.rounds += 1
                        pending = {} if direct else None
                        touched = self._fire_triggered(
                            stratum, dispatch, current, recorder, stats, pending
                        )
                        new_rows = self._promote(program, touched, database, pending)
                        current = set()
                        for (predicate, _), values in new_rows.items():
                            if values:
                                current.add(predicate)
                                all_new.setdefault(predicate, set()).update(values)
                        iterations += 1
        if stats is not None:
            for values in all_new.values():
                stats.tuples_derived += len(values)
        return all_new

    def propagate(
        self,
        compiled: CompiledProgram,
        database,
        delta: dict[str, set[tuple]],
        recorder: Optional[Recorder] = None,
        stats: Optional[ExecutionStats] = None,
    ) -> dict[str, set[tuple]]:
        """Semi-naive propagation of ``delta`` inside the warm mirror.

        A stratum runs only when :attr:`CompiledProgram.dispatch` maps a
        predicate of the accumulated delta to one of its ``(rule, position)``
        pairs, and each round executes the delta statements of exactly the
        pairs its delta triggers, in ``(rule, position)`` order.
        """
        program_key, program = self._program_for(compiled)
        if isinstance(program, _Fallback):
            self._db_ref = None
            self._python.observability = self.observability
            return self._python.propagate(
                compiled, database, delta, recorder=recorder, stats=stats
            )
        tracer = self._tracer()
        inserted: dict[str, set[tuple]] = defaultdict(set)
        direct = recorder is None
        with self._mirror_transaction():
            if self._mirror_current(database, program_key, delta):
                staged = self._fold_delta(program, delta)
            else:
                self._load_mirror(program, database)  # delta rows are already inside
                self._program_key = program_key
                staged = False

            accumulated = {predicate: set(values) for predicate, values in delta.items()}
            for index, stratum in enumerate(program.strata):
                dispatch = compiled.dispatch[index]
                current = {predicate for predicate, values in accumulated.items() if values}
                # Skip strata no delta predicate can fire — the common case for
                # the small per-transaction deltas of the exchange engine.
                if not any(predicate in dispatch for predicate in current):
                    continue
                with self._span(tracer, index, stratum):
                    if staged:
                        # The warm-path fold already staged exactly this delta.
                        staged = False
                    else:
                        self._stage_delta_tables(program, accumulated, database=database)
                    while current:
                        if stats is not None:
                            stats.rounds += 1
                        pending = {} if direct else None
                        touched = self._fire_triggered(
                            stratum, dispatch, current, recorder, stats, pending
                        )
                        if not touched:
                            break
                        new_rows = self._promote(program, touched, database, pending)
                        current = set()
                        for (predicate, _), values in new_rows.items():
                            if values:
                                current.add(predicate)
                                inserted[predicate].update(values)
                                accumulated.setdefault(predicate, set()).update(values)
        if stats is not None:
            for values in inserted.values():
                stats.tuples_derived += len(values)
        return dict(inserted)

    def _fold_delta(self, program: _ProgramSQL, delta: dict[str, set[tuple]]) -> bool:
        """Fold fresh base tuples into the warm mirror, staging them en route.

        The rows are appended straight to the full relations — landing
        above each table's watermark, so the windows they occupy *are* the
        staged delta and the first firing stratum can skip
        :meth:`_stage_delta_tables`.
        """
        self._windows.clear()
        marks = self._marks
        for predicate, values in delta.items():
            by_arity: dict[int, list[tuple]] = {}
            for row in values:
                if len(row):
                    by_arity.setdefault(len(row), []).append(row)
            for arity, bucket in by_arity.items():
                name = _table_name("rel", predicate, arity)
                if name not in self._created:
                    continue  # No statement reads this (predicate, arity).
                key = (predicate, arity)
                lo = marks.get(key, 0)
                self._connection.executemany(
                    f"INSERT OR IGNORE INTO {name} VALUES ({_placeholders(arity)})",
                    [self._encode_row(row) for row in bucket],
                )
                hi = self._max_rowid(name)
                self._windows[key] = (lo, hi)
                marks[key] = hi
            self._counts[predicate] = self._counts.get(predicate, 0) + len(values)
        return True

    # -- introspection -------------------------------------------------------
    def explain(self, compiled: CompiledProgram) -> list[str]:
        """The generated SQL, one ``INSERT ... SELECT`` per rule plan."""
        _, program = self._program_for(compiled)
        if isinstance(program, _Fallback):
            return [f"-- python fallback: {program.reason}"] + self._python.explain(compiled)
        lines = []
        for stratum in program.strata:
            for entry in stratum:
                lines.append(f"-- {entry.rule}")
                lines.append(entry.plain.insert_sql + ";")
                for position in sorted(entry.deltas):
                    lines.append(f"-- delta on body position {position}")
                    lines.append(entry.deltas[position].insert_sql + ";")
        return lines


def explain_sql(program) -> str:
    """Render the SQL a program compiles to (the ``cdss.explain()`` payload)."""
    from .plan import compile_program

    backend = SQLExecutionBackend()
    return "\n".join(backend.explain(compile_program(program)))
