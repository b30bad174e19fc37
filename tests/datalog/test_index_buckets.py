"""Column-index buckets against a naive scan of the relation.

``Database`` and ``MemoryInstance`` share ``repro.datalog.indexing``: a
bucket is a tuple of rows up to ``_TUPLE_BUCKET`` rows, then a set, and a
bucket that empties is dropped.  Random add/remove/index/lookup sequences
(on a narrow first column, so buckets cross the bound and drain) must answer
every ``lookup`` and ``probe`` exactly as a filter over the relation does.
"""

from __future__ import annotations

import gc
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.evaluation import Database
from repro.datalog.indexing import _TUPLE_BUCKET
from repro.storage.memory import MemoryInstance

#: Column 0 takes two values, so a bucket of it holds up to 12 rows.
ROWS = st.tuples(st.integers(0, 1), st.integers(0, 11))
POSITIONS = st.integers(0, 1)
VALUES = st.integers(0, 11)

OPS = st.one_of(
    st.tuples(st.just("add"), ROWS),
    st.tuples(st.just("add"), ROWS),
    st.tuples(st.just("remove"), ROWS),
    st.tuples(st.just("add_many"), st.lists(ROWS, max_size=6)),
    st.tuples(st.just("ensure"), POSITIONS),
    st.tuples(st.just("lookup"), POSITIONS, VALUES),
)


def scan(rows, position: int, value) -> frozenset:
    return frozenset(row for row in rows if len(row) > position and row[position] == value)


def assert_well_formed(indexes) -> None:
    """No empty bucket is kept; a tuple bucket is small and holds no row twice."""
    for buckets in indexes.values():
        for bucket in buckets.values():
            assert bucket
            if type(bucket) is tuple:
                assert len(bucket) <= _TUPLE_BUCKET
                assert len(set(bucket)) == len(bucket)
            else:
                assert type(bucket) is set


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(OPS, max_size=60))
def test_database_lookups_match_a_scan(ops):
    database = Database()
    rows: set[tuple] = set()
    for name, *arguments in ops:
        if name == "add":
            (row,) = arguments
            assert database.add("R", row) == (row not in rows)
            rows.add(row)
        elif name == "remove":
            (row,) = arguments
            assert database.remove("R", row) == (row in rows)
            rows.discard(row)
        elif name == "add_many":
            (batch,) = arguments
            fresh = database.add_many("R", batch)
            assert set(fresh) == set(batch) - rows and len(fresh) == len(set(fresh))
            rows.update(batch)
        elif name == "ensure":
            database.ensure_indexes([("R", arguments[0])])
        else:
            position, value = arguments
            expected = scan(rows, position, value)
            assert database.lookup("R", position, value) == expected
            probed = list(database.probe("R", position, value))
            assert len(probed) == len(expected) and set(probed) == expected
        assert_well_formed(database._indexes.get("R", {}))
    for position in (0, 1):
        for value in range(12):
            assert database.lookup("R", position, value) == scan(rows, position, value)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(OPS, max_size=60))
def test_memory_instance_lookups_match_a_scan(ops):
    instance = MemoryInstance()
    instance.create_relation("R", 2)
    rows: set[tuple] = set()
    for name, *arguments in ops:
        if name == "add":
            (row,) = arguments
            assert instance.insert("R", row) == (row not in rows)
            rows.add(row)
        elif name == "remove":
            (row,) = arguments
            assert instance.delete("R", row) == (row in rows)
            rows.discard(row)
        elif name == "add_many":
            (batch,) = arguments
            assert instance.insert_many("R", batch) == len(set(batch) - rows)
            rows.update(batch)
        elif name == "ensure":
            # The instance builds an index on a column's first lookup.
            instance.lookup("R", arguments[0], 0)
        else:
            position, value = arguments
            assert instance.lookup("R", position, value) == scan(rows, position, value)
        assert_well_formed(instance._indexes.get("R", {}))
    for position in (0, 1):
        for value in range(12):
            assert instance.lookup("R", position, value) == scan(rows, position, value)


def test_a_bucket_grows_past_the_bound_and_is_dropped_once_drained():
    database = Database()
    database.ensure_indexes([("R", 0)])
    buckets = database._indexes["R"][0]
    rows = [("k", index) for index in range(2 * _TUPLE_BUCKET)]
    for count, row in enumerate(rows, start=1):
        database.add("R", row)
        assert type(buckets["k"]) is (tuple if count <= _TUPLE_BUCKET else set)
        assert database.lookup("R", 0, "k") == frozenset(rows[:count])
    for count, row in enumerate(rows, start=1):
        database.remove("R", row)
        assert database.lookup("R", 0, "k") == frozenset(rows[count:])
    assert "k" not in buckets

    database.add("R", ("k", 0))
    database.add("R", ("k", 1))
    database.remove("R", ("k", 0))
    assert buckets["k"] == (("k", 1),)
    database.remove("R", ("k", 1))
    assert "k" not in buckets


def test_retained_bytes_per_database_row_with_two_unique_key_indexes():
    """40k rows, each key unique in both indexed columns, so every bucket
    holds one row: the database keeps at most 280 B per row.  On CPython
    3.11 it kept 541 B with a one-row set per bucket and 205 B with a
    one-row tuple; the bound leaves about 35% for other interpreter
    versions.  The rows are the caller's."""
    count = 40_000
    rows = [(index, f"k{index}") for index in range(count)]
    gc.collect()
    tracemalloc.start()
    try:
        database = Database()
        database.ensure_indexes([("R", 0), ("R", 1)])
        for row in rows:
            database.add("R", row)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert database.lookup("R", 1, "k7") == frozenset({(7, "k7")})
    assert retained / count <= 280
