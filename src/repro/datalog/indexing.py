"""Shared per-column hash-index maintenance.

Both the datalog :class:`~repro.datalog.evaluation.Database` (join probes of
the compiled executor) and the in-memory storage backend
(:class:`~repro.storage.memory.MemoryInstance`, serving indexed ``lookup``)
keep the same structure per relation: ``position -> value -> bucket``.  A
bucket holds the tuples with that value in that column: a tuple of up to
``_TUPLE_BUCKET`` rows, then a set.  Most keys of exchanged data are unique,
so most buckets are ``(row,)``, a fraction of a one-row set's size and a
container the garbage collector can stop tracking.  Callers only iterate a
bucket (or copy it into a ``frozenset``).  These helpers are the single
implementation of building and maintaining that structure — including
dropping a bucket the moment it empties, so delete-heavy runs do not
accumulate empty buckets per historical key.
"""

from __future__ import annotations

from typing import Iterable, Union

#: A bucket stays a tuple up to this many rows, then becomes a set.
_TUPLE_BUCKET = 8

#: The rows of one column value: a tuple of rows, or a set past ``_TUPLE_BUCKET``.
Bucket = Union[tuple, set]

#: One relation's column indexes: position -> value -> bucket of tuples.
ColumnIndexes = dict[int, dict[object, Bucket]]


def build_column_index(rows: Iterable[tuple], position: int) -> dict[object, Bucket]:
    """Index ``rows`` (distinct) by the value at ``position`` (shorter rows are skipped)."""
    buckets: dict[object, Bucket] = {}
    positions = {position: buckets}
    for row in rows:
        index_insert(positions, row)
    return buckets


def index_insert(positions: ColumnIndexes, values: tuple) -> None:
    """Register a newly inserted tuple with every column index of its relation."""
    size = len(values)
    for position, buckets in positions.items():
        if position < size:
            value = values[position]
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = (values,)
            elif bucket.__class__ is set:
                bucket.add(values)
            elif len(bucket) < _TUPLE_BUCKET:
                buckets[value] = bucket + (values,)
            else:
                buckets[value] = {*bucket, values}


def index_discard(positions: ColumnIndexes, values: tuple) -> None:
    """Unregister a deleted tuple, dropping any bucket it leaves empty."""
    size = len(values)
    for position, buckets in positions.items():
        if position < size:
            value = values[position]
            bucket = buckets.get(value)
            if bucket is None:
                continue
            if bucket.__class__ is set:
                bucket.discard(values)
                if not bucket:
                    del buckets[value]
            elif values in bucket:
                if len(bucket) == 1:
                    del buckets[value]
                else:
                    at = bucket.index(values)
                    buckets[value] = bucket[:at] + bucket[at + 1 :]
