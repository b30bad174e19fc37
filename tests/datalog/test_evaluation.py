"""Unit tests for naive/semi-naive datalog evaluation."""

import pytest

from repro.datalog.ast import Fact
from repro.datalog.evaluation import Database, derived_tuples, evaluate_program
from repro.datalog.executor import fire_rule
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.plan import compile_rule
from repro.errors import DatalogError


class TestDatabase:
    def test_add_and_contains(self):
        db = Database()
        assert db.add("R", (1, 2))
        assert not db.add("R", (1, 2))
        assert db.contains("R", (1, 2))
        assert not db.contains("R", (2, 1))

    def test_remove(self):
        db = Database()
        db.add("R", (1,))
        assert db.remove("R", (1,))
        assert not db.remove("R", (1,))
        assert not db.contains("R", (1,))

    def test_from_dict_and_count(self):
        db = Database.from_dict({"R": [(1,), (2,)], "S": [(3, 4)]})
        assert db.count("R") == 2
        assert db.count() == 3

    def test_copy_is_independent(self):
        db = Database.from_dict({"R": [(1,)]})
        clone = db.copy()
        clone.add("R", (2,))
        assert db.count("R") == 1
        assert clone.count("R") == 2

    def test_merge_and_diff(self):
        left = Database.from_dict({"R": [(1,)]})
        right = Database.from_dict({"R": [(1,), (2,)]})
        diff = right.diff(left)
        assert diff.relation("R") == frozenset({(2,)})
        added = left.merge(right)
        assert added == 1
        assert left.count("R") == 2

    def test_equality_ignores_empty_relations(self):
        left = Database.from_dict({"R": [(1,)]})
        right = Database.from_dict({"R": [(1,)], "S": []})
        assert left == right

    def test_facts_iteration(self):
        db = Database.from_dict({"R": [(1,)]})
        facts = list(db.facts())
        assert facts == [Fact("R", (1,))]

    def test_lookup_builds_and_maintains_index(self):
        db = Database.from_dict({"R": [(1, "a"), (2, "b"), (1, "c")]})
        assert db.lookup("R", 0, 1) == frozenset({(1, "a"), (1, "c")})
        # The index is maintained by later inserts and deletes.
        db.add("R", (1, "d"))
        assert db.lookup("R", 0, 1) == frozenset({(1, "a"), (1, "c"), (1, "d")})
        db.remove("R", (1, "a"))
        assert db.lookup("R", 0, 1) == frozenset({(1, "c"), (1, "d")})
        assert db.lookup("R", 1, "b") == frozenset({(2, "b")})
        assert db.lookup("R", 1, "missing") == frozenset()

    def test_lookup_on_unknown_relation(self):
        db = Database()
        assert db.lookup("Nothing", 0, 1) == frozenset()

    def test_copy_does_not_share_indexes(self):
        db = Database.from_dict({"R": [(1, "a")]})
        db.lookup("R", 0, 1)
        clone = db.copy()
        clone.add("R", (1, "b"))
        assert db.lookup("R", 0, 1) == frozenset({(1, "a")})
        assert clone.lookup("R", 0, 1) == frozenset({(1, "a"), (1, "b")})

    def test_remove_drops_empty_index_buckets(self):
        # Regression: delete-heavy runs used to leave one empty `value ->
        # set()` entry per historical key in every column index.
        db = Database.from_dict({"R": [(i, "x") for i in range(100)]})
        db.lookup("R", 0, 0)  # build the column-0 index
        for i in range(100):
            db.remove("R", (i, "x"))
        buckets = db._indexes["R"][0]
        assert buckets == {}
        # The index keeps working after draining.
        db.add("R", (7, "y"))
        assert db.lookup("R", 0, 7) == frozenset({(7, "y")})
        assert set(buckets) == {7}

    def test_ensure_indexes_prebuilds_and_maintains(self):
        db = Database.from_dict({"R": [(1, "a"), (2, "b")]})
        db.ensure_indexes([("R", 1), ("S", 0)])
        # Built before any probe, also for a relation that is still empty;
        # the contents are compared through lookup, whatever the buckets are.
        assert list(db._indexes["R"]) == [1] and list(db._indexes["S"]) == [0]
        assert db.lookup("R", 1, "a") == frozenset({(1, "a")})
        assert db.lookup("R", 1, "b") == frozenset({(2, "b")})
        # Pre-built indexes are maintained by later mutations, including for
        # relations that were empty at ensure time.
        db.add("S", ("k", 1))
        assert db.lookup("S", 0, "k") == frozenset({("k", 1)})
        db.remove("R", (1, "a"))
        assert db.lookup("R", 1, "a") == frozenset()


class TestFireRule:
    def test_projection(self):
        rule = parse_rule("T(x) :- R(x, y).")
        db = Database.from_dict({"R": [(1, 2), (1, 3), (4, 5)]})
        assert fire_rule(compile_rule(rule), db) == {(1,), (4,)}

    def test_join(self):
        rule = parse_rule("T(x, z) :- R(x, y), S(y, z).")
        db = Database.from_dict({"R": [(1, 2)], "S": [(2, 3), (9, 9)]})
        assert fire_rule(compile_rule(rule), db) == {(1, 3)}

    def test_comparison_filters(self):
        rule = parse_rule("T(x) :- R(x, y), x < y.")
        db = Database.from_dict({"R": [(1, 2), (3, 1)]})
        assert fire_rule(compile_rule(rule), db) == {(1,)}

    def test_constant_in_body(self):
        rule = parse_rule("T(y) :- R('key', y).")
        db = Database.from_dict({"R": [("key", 1), ("other", 2)]})
        assert fire_rule(compile_rule(rule), db) == {(1,)}

    def test_skolem_head_produces_labelled_null(self):
        rule = parse_rule("T(SK_id(x), y) :- R(x, y).")
        db = Database.from_dict({"R": [("a", 1)]})
        results = fire_rule(compile_rule(rule), db)
        assert len(results) == 1
        (null, value), = results
        assert value == 1
        assert null.function == "SK_id"
        assert null.arguments == ("a",)


class TestEvaluateProgram:
    def test_non_recursive_program(self):
        program = parse_program("T(x) :- R(x, y).\nU(x) :- T(x).")
        db = Database.from_dict({"R": [(1, 2)]})
        result = evaluate_program(program, db)
        assert result.relation("U") == frozenset({(1,)})

    def test_input_database_not_mutated(self):
        program = parse_program("T(x) :- R(x).")
        db = Database.from_dict({"R": [(1,)]})
        evaluate_program(program, db)
        assert db.count("T") == 0

    def test_transitive_closure(self):
        program = parse_program(
            "Path(x, y) :- Edge(x, y).\nPath(x, z) :- Path(x, y), Edge(y, z)."
        )
        db = Database.from_dict({"Edge": [(1, 2), (2, 3), (3, 4)]})
        result = evaluate_program(program, db)
        assert (1, 4) in result.relation("Path")
        assert result.count("Path") == 6

    def test_transitive_closure_with_cycle_terminates(self):
        program = parse_program(
            "Path(x, y) :- Edge(x, y).\nPath(x, z) :- Path(x, y), Edge(y, z)."
        )
        db = Database.from_dict({"Edge": [(1, 2), (2, 1)]})
        result = evaluate_program(program, db)
        assert result.count("Path") == 4

    def test_mutual_recursion(self):
        program = parse_program(
            "Even(x) :- Zero(x).\n"
            "Even(y) :- Odd(x), Succ(x, y).\n"
            "Odd(y) :- Even(x), Succ(x, y)."
        )
        db = Database.from_dict({"Zero": [(0,)], "Succ": [(i, i + 1) for i in range(6)]})
        result = evaluate_program(program, db)
        assert (4,) in result.relation("Even")
        assert (5,) in result.relation("Odd")
        assert (5,) not in result.relation("Even")

    def test_stratified_negation(self):
        program = parse_program(
            "Reach(x) :- Start(x).\n"
            "Reach(y) :- Reach(x), Edge(x, y).\n"
            "Unreached(x) :- Node(x), not Reach(x)."
        )
        db = Database.from_dict(
            {
                "Start": [(1,)],
                "Edge": [(1, 2)],
                "Node": [(1,), (2,), (3,)],
            }
        )
        result = evaluate_program(program, db)
        assert result.relation("Unreached") == frozenset({(3,)})

    def test_max_iterations_guard(self):
        program = parse_program(
            "Path(x, y) :- Edge(x, y).\nPath(x, z) :- Path(x, y), Edge(y, z)."
        )
        for length in (8, 50):
            db = Database.from_dict({"Edge": [(i, i + 1) for i in range(length)]})
            with pytest.raises(DatalogError):
                evaluate_program(program, db, max_iterations=2)

    def test_derived_tuples_only_returns_new(self):
        program = parse_program("T(x) :- R(x).")
        db = Database.from_dict({"R": [(1,)]})
        delta = derived_tuples(program, db)
        assert delta.relation("T") == frozenset({(1,)})
        assert delta.count("R") == 0

    def test_skolem_composition_terminates(self):
        # A cyclic split/join mapping pair: labelled nulls must not cascade
        # into ever-new values.
        program = parse_program(
            "B(x, SK_id(x)) :- A(x).\n"
            "A(x) :- B(x, y)."
        )
        db = Database.from_dict({"A": [("seed",)]})
        result = evaluate_program(program, db)
        assert result.count("A") == 1
        assert result.count("B") == 1
