"""Copy rules ``H(x̄) :- B(ȳ)`` compile to copy plans.

A rule with one positive body atom over distinct plain variables and a head
of plain variables fires as one comprehension over the delta or relation
rows — the row itself, or an ``itemgetter`` permutation/projection of it —
instead of through the closure chain.  Its firings, and their order, must
be those of the closure plan of the same rule; ``x = x`` (always true, and
not a copy rule) gives that closure plan here.
"""

from __future__ import annotations

from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.evaluation import Database
from repro.datalog.executor import PythonExecutionBackend
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.plan import compile_program, compile_rule

COPY_RULES = {
    "identity": "T(x, y, z) :- R(x, y, z).",
    "permutation": "T(z, x, y) :- R(x, y, z).",
    "projection": "T(z, x) :- R(x, y, z).",
    "repeated head variable": "T(y, y) :- R(x, y, z).",
    "one column": "T(y) :- R(x, y, z).",
    "no column": "T() :- R(x, y, z).",
}

ROWS = [(1, 2, 3), (4, 5, 6), (1, 2), (7,), (1, 2, 3, 4), (4, 5, 7)]


def _join_twin(text: str):
    """The same rule with an always-true guard: compiled as a join plan."""
    head, body = text.rstrip(".").split(" :- ")
    return compile_rule(parse_rule(f"{head} :- {body}, x = x."))


@pytest.mark.parametrize("name", sorted(COPY_RULES))
def test_copy_plans_fire_as_the_join_plan_does(name):
    text = COPY_RULES[name]
    copy, join = compile_rule(parse_rule(text)), _join_twin(text)
    database = Database.from_dict({"R": ROWS})
    delta = {"R": {(4, 5, 6), (9,), (1, 2, 3)}}
    for position, changes in ((None, None), (0, delta)):
        plan, twin = copy.plan_for(position), join.plan_for(position)
        assert plan.kind == "copy" and twin.kind == "join"
        assert plan.firings(database, changes) == twin.firings(database, changes)
        assert plan.heads(database, changes) == twin.heads(database, changes)


def test_identity_copy_hands_the_row_itself_over():
    plan = compile_rule(parse_rule(COPY_RULES["identity"])).plan_for(None)
    database = Database.from_dict({"R": ROWS})
    assert plan.project is None
    heads = plan.heads(database, None)
    assert sorted(heads) == [(1, 2, 3), (4, 5, 6), (4, 5, 7)]
    assert all(head is row for head, (_, row) in zip(heads, plan.firings(database, None)))


def test_permutations_and_projections_are_item_getters():
    for name in ("permutation", "projection"):
        plan = compile_rule(parse_rule(COPY_RULES[name])).plan_for(0)
        assert isinstance(plan.project, itemgetter)
    one = compile_rule(parse_rule(COPY_RULES["one column"])).plan_for(None)
    assert one.project((1, 2, 3)) == (2,)


def test_rows_of_the_wrong_arity_match_nothing():
    plan = compile_rule(parse_rule("T(x, y) :- R(x, y).")).plan_for(0)
    delta = {"R": {(1,), (1, 2), (1, 2, 3), ()}}
    assert plan.heads(Database(), delta) == [(1, 2)]
    assert plan.firings(Database(), delta) == [((1, 2), (1, 2))]


@pytest.mark.parametrize(
    "text",
    [
        "T(x) :- R(x, x).",  # repeated body variable
        "T(x) :- R(x, 'k').",  # constant in the body
        "T(x) :- R(x, SK_f(x)).",  # skolem term in the body
        "T(x, 'k') :- R(x, y).",  # constant in the head
        "T(x, SK_f(x, y)) :- R(x, y).",  # labelled null in the head
        "T(x) :- R(x, y), x < y.",  # a guard
        "T(x) :- R(x, y), not S(x).",  # a negated atom
        "T(x, z) :- R(x, y), S(y, z).",  # a join
    ],
)
def test_anything_but_a_copy_rule_keeps_the_join_plan(text):
    compiled = compile_rule(parse_rule(text))
    for position in (None, *compiled.positive_positions):
        assert compiled.plan_for(position).kind == "join"


def test_explain_names_the_plan_kind():
    program = parse_program("T(y, x) :- R(x, y).\nU(x, z) :- T(x, y), R(y, z).")
    lines = PythonExecutionBackend().explain(compile_program(program))
    assert lines[0].endswith("--  copy: scan R")
    assert lines[1].endswith("--  join: scan T -> probe R[0]")


@settings(max_examples=60, deadline=None)
@given(
    columns=st.lists(st.integers(0, 2), max_size=4),
    rows=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=12),
    short=st.sets(st.tuples(st.integers(0, 3)), max_size=3),
)
def test_any_copy_head_fires_as_its_join_twin(columns, rows, short):
    names = "xyz"
    head = ", ".join(names[column] for column in columns)
    text = f"T({head}) :- R(x, y, z)."
    copy, join = compile_rule(parse_rule(text)), _join_twin(text)
    database = Database.from_dict({"R": [*rows, *short]})
    delta = {"R": set(list(rows)[::2]) | short}
    for position, changes in ((None, None), (0, delta)):
        assert copy.plan_for(position).kind == "copy"
        assert copy.plan_for(position).firings(database, changes) == join.plan_for(
            position
        ).firings(database, changes)
