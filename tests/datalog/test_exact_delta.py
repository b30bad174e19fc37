"""Exact delta plans: a combination of rows fires once, however many of its
rows arrive in the same delta.

The delta plan for body position *i* reads the delta at *i* and, at every
positive position *j < i*, the relation minus the delta, so a combination
whose rows at positions *i₁ < i₂ < …* are all new fires only in the plan for
*i₁* (ΔRᵢ ⋈ R_old for j < i, ΔRᵢ ⋈ R_new for j > i).  Each scenario pushes
one delta through :meth:`PythonExecutionBackend.propagate` and counts the
firings the recorder sees per combination.
"""

from __future__ import annotations

from collections import Counter

from repro.datalog.ast import SkolemTerm
from repro.datalog.evaluation import Database
from repro.datalog.executor import ExecutionStats, PythonExecutionBackend
from repro.datalog.parser import parse_program
from repro.datalog.plan import compile_program


def _fire_one_delta(text: str, old: dict, new: dict):
    """Propagate ``new`` over a database holding ``old`` and ``new``;
    returns ``(firings per (label, combination), stats, database)``."""
    compiled = compile_program(parse_program(text))
    database = Database()
    for predicate, rows in old.items():
        for row in rows:
            database.add(predicate, row)
    backend = PythonExecutionBackend()
    backend.run_program(compiled, database)  # the old state, fully derived
    delta = {}
    for predicate, rows in new.items():
        for row in rows:
            if database.add(predicate, row):
                delta.setdefault(predicate, set()).add(row)
    seen: Counter = Counter()

    def recorder(label, predicates, firings):
        for firing in firings:
            seen[(label, predicates, firing)] += 1

    stats = ExecutionStats()
    backend.propagate(compiled, database, delta, recorder=recorder, stats=stats)
    return seen, stats, database


def test_three_atom_join_whose_atoms_arrive_together_fires_once():
    """The Figure-2 ``M_AC`` shape: an O, P and S row arriving in one delta
    join once, not once per delta position."""
    text = "OPS(org, prot, seq) :- O(org, oid), P(prot, pid), S(oid, pid, seq)."
    triples = range(5)
    new = {
        "O": [(f"org{i}", i) for i in triples],
        "P": [(f"prot{i}", 10 + i) for i in triples],
        "S": [(i, 10 + i, f"seq{i}") for i in triples],
    }
    seen, stats, database = _fire_one_delta(text, {}, new)
    assert len(seen) == 5 and set(seen.values()) == {1}
    assert stats.rules_fired == 5
    assert len(database.relation("OPS")) == 5


def test_old_rows_still_join_new_ones_once():
    """A new S row over an old O and P fires (in the S plan); a new triple
    fires once (in the O plan), the mixed ones once each."""
    text = "OPS(org, prot, seq) :- O(org, oid), P(prot, pid), S(oid, pid, seq)."
    old = {"O": [("org0", 0)], "P": [("prot0", 10)], "S": [(0, 10, "seq0")]}
    new = {
        "O": [("org1", 1)],
        "P": [("prot1", 11)],
        "S": [(0, 10, "again"), (1, 11, "seq1"), (0, 11, "mixed")],
    }
    seen, stats, database = _fire_one_delta(text, old, new)
    heads = sorted(firing[0] for (_, _, firing) in seen)
    assert heads == [
        ("org0", "prot0", "again"),
        ("org0", "prot1", "mixed"),
        ("org1", "prot1", "seq1"),
    ]
    assert set(seen.values()) == {1} and stats.rules_fired == 3


def test_self_join_fires_each_pair_once():
    """One predicate at two positions: the pair (e₁, e₂) of new edges fires
    in the plan for position 0 only; old-new pairs fire once as well."""
    text = "T(x, z) :- E(x, y), E(y, z)."
    old = {"E": [(0, 1)]}
    new = {"E": [(1, 2), (2, 3), (3, 1)]}
    seen, stats, _ = _fire_one_delta(text, old, new)
    combinations = sorted(firing[1:] for (_, _, firing) in seen)
    assert combinations == [
        ((0, 1), (1, 2)),
        ((1, 2), (2, 3)),
        ((2, 3), (3, 1)),
        ((3, 1), (1, 2)),
    ]
    assert set(seen.values()) == {1} and stats.rules_fired == 4


def test_scan_step_before_the_delta_atom_leaves_the_delta_out():
    """A cross product: the delta plan for S scans R (no shared variable),
    and that scan skips R's delta rows, which the plan for R already paired."""
    text = "T(x, y) :- R(x), S(y)."
    assert compile_program(parse_program(text)).rules[0].plan_for(1).description == (
        "delta S",
        "scan R \\ delta",
    )
    old = {"R": [(0,)], "S": [(0,)]}
    new = {"R": [(1,), (2,)], "S": [(1,), (2,)]}
    seen, stats, database = _fire_one_delta(text, old, new)
    assert len(seen) == 3 * 3 - 1  # every pair but the old (0, 0)
    assert set(seen.values()) == {1} and stats.rules_fired == 8
    assert len(database.relation("T")) == 9


def test_repeated_rows_of_one_combination_are_counted_once():
    """A self-join matching one new edge against itself fires once."""
    seen, stats, _ = _fire_one_delta("T(x) :- E(x, x), E(x, y).", {}, {"E": [(5, 5)]})
    assert list(seen.values()) == [1] and stats.rules_fired == 1


def test_a_negated_atom_is_no_delta_position():
    """Only positive atoms get a delta plan: new R rows fire once each,
    filtered by the old S, and nothing fires for the negated S."""
    seen, stats, database = _fire_one_delta(
        "T(x) :- R(x), not S(x).", {"S": [(2,)]}, {"R": [(1,), (2,), (3,)]}
    )
    assert sorted(firing for (_, _, firing) in seen) == [((1,), (1,)), ((3,), (3,))]
    assert set(seen.values()) == {1} and stats.rules_fired == 2
    assert database.relation("T") == {(1,), (3,)}


def test_a_comparison_filters_combinations_before_they_fire():
    """A guard over a self-join: each new combination is judged once, and
    only the ones passing ``x < z`` fire."""
    text = "T(x, z) :- E(x, y), E(y, z), x < z."
    seen, stats, database = _fire_one_delta(text, {"E": [(0, 1)]}, {"E": [(1, 2), (2, 0), (2, 5)]})
    combinations = sorted(firing[1:] for (_, _, firing) in seen)
    assert combinations == [((0, 1), (1, 2)), ((1, 2), (2, 5))]
    assert set(seen.values()) == {1} and stats.rules_fired == 2
    assert database.relation("T") == {(0, 2), (1, 5)}


def test_a_skolem_head_builds_one_null_per_combination():
    """R and S rows arriving together pair once, each pair with its own
    labelled null."""
    seen, stats, database = _fire_one_delta(
        "T(x, SK_f(x, y)) :- R(x), S(y).", {}, {"R": [(1,), (2,)], "S": [("a",), ("b",)]}
    )
    assert len(seen) == 4 and set(seen.values()) == {1} and stats.rules_fired == 4
    assert database.relation("T") == {
        (x, SkolemTerm("SK_f", (x, y))) for x in (1, 2) for y in ("a", "b")
    }
