"""Generated rule kernels against the closure plans they replaced.

Every plan of a rule (the plain plan and one delta plan per positive body
position) is generated Python source.  Its ``heads`` and ``firings`` must
list exactly what the closure plan of ``closure_plans.py`` lists for the
same rule, database and delta, in the same order: that order assigns the
provenance graph's tuple ids and orders its derivations.

Copy rules ``H(x̄) :- B(ȳ)`` — the mappings' identity copies and the
publication rules — are ordinary kernels; the identity copy hands the
matched row itself over as its head.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import Atom, Comparison, Constant, Rule, SkolemTerm, Variable
from repro.datalog.evaluation import Database
from repro.datalog.executor import PythonExecutionBackend
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.plan import compile_program, compile_rule

from closure_plans import closure_plan

COPY_RULES = {
    "identity": "T(x, y, z) :- R(x, y, z).",
    "permutation": "T(z, x, y) :- R(x, y, z).",
    "projection": "T(z, x) :- R(x, y, z).",
    "repeated head variable": "T(y, y) :- R(x, y, z).",
    "one column": "T(y) :- R(x, y, z).",
    "no column": "T() :- R(x, y, z).",
}

ROWS = [(1, 2, 3), (4, 5, 6), (1, 2), (7,), (1, 2, 3, 4), (4, 5, 7)]


def assert_kernels_match_closures(rule: Rule, database: Database, delta: dict) -> None:
    """Every plan of ``rule`` lists what its closure plan lists, in order."""
    compiled = compile_rule(rule)
    for position in (None, *compiled.positive_positions):
        changes = None if position is None else delta
        plan = compiled.plan_for(position)
        heads, firings = closure_plan(rule, position)
        context = f"{rule!r} at {position}\n{plan.source}"
        # repr tells 1 from True and 1.0, which compare equal.
        assert repr(plan.heads(database, changes)) == repr(heads(database, changes)), context
        assert repr(plan.firings(database, changes)) == repr(firings(database, changes)), context


@pytest.mark.parametrize("name", sorted(COPY_RULES))
def test_copy_rules_fire_as_the_closure_plan_does(name):
    database = Database.from_dict({"R": ROWS})
    delta = {"R": {(4, 5, 6), (9,), (1, 2, 3)}}
    assert_kernels_match_closures(parse_rule(COPY_RULES[name]), database, delta)


def test_identity_copy_hands_the_row_itself_over():
    plan = compile_rule(parse_rule(COPY_RULES["identity"])).plan_for(None)
    database = Database.from_dict({"R": ROWS})
    heads = plan.heads(database, None)
    assert sorted(heads) == [(1, 2, 3), (4, 5, 6), (4, 5, 7)]
    assert all(head is row for head, (_, row) in zip(heads, plan.firings(database, None)))
    assert "append(r0)" in plan.source


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
        "T(x, y) :- R(y, x), S(x, y).",  # S repeats the head, but R binds it
    ],
)
def test_other_rules_fire_as_the_closure_plan_does(text):
    database = Database.from_dict(
        {
            "R": [(1, 1), (1, "k"), (1, SkolemTerm("SK_f", (1,))), (2, 3), (3,)],
            "S": [(1,), (1, 4), (3, 5), (True, 1)],
        }
    )
    delta = {"R": {(1, 1), (2, 3)}, "S": {(3, 5)}}
    assert_kernels_match_closures(parse_rule(text), database, delta)


def test_explain_prints_each_plan_and_its_kernel():
    program = parse_program("T(y, x) :- R(x, y).\nU(x, z) :- T(x, y), R(y, z).")
    lines = PythonExecutionBackend().explain(compile_program(program))
    assert lines[0].endswith("--  scan R")
    assert lines[1] == "    def make(p0):"
    join = next(index for index, line in enumerate(lines) if line.startswith("U("))
    assert lines[join].endswith("--  scan T -> probe R[0]")
    assert "\n".join(lines[join + 1 :]) == "\n".join(
        f"    {line}" if line else ""
        for line in compile_program(program).rules[1].plan_for(None).source.splitlines()
    )


def test_rules_of_one_shape_share_one_kernel_source():
    first = compile_rule(parse_rule("T(x, 'a') :- R(x, y), S(y, SK_f(x)), x < y."))
    second = compile_rule(parse_rule("U(p, 7) :- V(p, q), W(q, SK_g(p)), p != q."))
    for position in (None, 0, 1):
        assert first.plan_for(position).source == second.plan_for(position).source
    assert first.plan_for(0).source != first.plan_for(1).source


@settings(max_examples=60, deadline=None)
@given(
    columns=st.lists(st.integers(0, 2), max_size=4),
    rows=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=12),
    short=st.sets(st.tuples(st.integers(0, 3)), max_size=3),
)
def test_any_copy_head_fires_as_its_closure_plan(columns, rows, short):
    head = ", ".join("xyz"[column] for column in columns)
    database = Database.from_dict({"R": [*rows, *short]})
    delta = {"R": set(list(rows)[::2]) | short}
    assert_kernels_match_closures(parse_rule(f"T({head}) :- R(x, y, z)."), database, delta)


# -- random rules, databases and deltas ------------------------------------------

_VARIABLES = tuple(Variable(name) for name in "xyzw")
_BODY_PREDICATES = ("A", "B", "C")
_VALUES = (
    0,
    1,
    True,
    SkolemTerm("SK_f", (0,)),
    SkolemTerm("SK_g", (0, SkolemTerm("SK_f", (0,)))),
    SkolemTerm("SK_g", (1, 0)),
)
_row = st.lists(st.sampled_from(_VALUES), max_size=3).map(tuple)  # some of the wrong arity


def _body_term(draw, depth: int = 0):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return Constant(draw(st.integers(0, 1)))
    if kind == 1 and depth < 2:
        function = draw(st.sampled_from(("SK_f", "SK_g")))
        arity = draw(st.integers(1, 2))
        return SkolemTerm(function, tuple(_body_term(draw, depth + 1) for _ in range(arity)))
    return draw(st.sampled_from(_VARIABLES))


def _bound_term(draw, bound: list, depth: int = 0):
    """A term over the variables the positive atoms bind."""
    kind = draw(st.integers(0, 6))
    if kind == 0 or not bound:
        return Constant(draw(st.integers(0, 1)))
    if kind == 1 and depth < 2:
        arity = draw(st.integers(1, 2))
        arguments = tuple(_bound_term(draw, bound, depth + 1) for _ in range(arity))
        return SkolemTerm(draw(st.sampled_from(("SK_f", "SK_h"))), arguments)
    return draw(st.sampled_from(bound))


@st.composite
def _rules(draw):
    """A safe rule: one to three positive atoms of arity 0-2 over four
    variables, constants and (nested) skolem terms; maybe a comparison and a
    negated atom; a head of zero to three terms over the bound variables
    (plain, permuted, constant or skolem) or the terms of a body atom,
    sometimes over a body predicate (a recursive rule)."""
    positives = [
        Atom(
            draw(st.sampled_from(_BODY_PREDICATES)),
            tuple(_body_term(draw) for _ in range(draw(st.integers(0, 2)))),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    bound = sorted({variable for atom in positives for variable in atom.variables()})
    guards = []
    if draw(st.booleans()):
        guards.append(
            Comparison(
                draw(st.sampled_from(("=", "!=", "<", ">="))),
                _bound_term(draw, bound),
                _bound_term(draw, bound),
            )
        )
    if draw(st.booleans()):
        terms = tuple(_bound_term(draw, bound) for _ in range(draw(st.integers(0, 2))))
        guards.append(Atom(draw(st.sampled_from(("C", "N"))), terms, negated=True))
    body = positives + guards
    order = draw(st.permutations(range(len(body))))
    if draw(st.integers(0, 3)) == 0:  # the terms of a body atom: a copy, when plain
        terms = draw(st.sampled_from(positives)).terms
    else:
        terms = tuple(_bound_term(draw, bound) for _ in range(draw(st.integers(0, 3))))
    head = Atom(draw(st.sampled_from(("H", "H", "H", *_BODY_PREDICATES))), terms)
    return Rule(head, tuple(body[index] for index in order))


@st.composite
def _inputs(draw):
    """A database over A, B, C and N, rows of every arity 0-3, and a delta
    of some of its rows plus a few it does not hold."""
    relations = {predicate: draw(st.lists(_row, max_size=8)) for predicate in ("A", "B", "C", "N")}
    delta = {}
    for predicate in _BODY_PREDICATES:
        rows = relations[predicate]
        keep = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        kept = [row for row, kept in zip(rows, keep) if kept]
        delta[predicate] = {*kept, *draw(st.lists(_row, max_size=2))}
    return Database.from_dict(relations), delta


def _check(rule, inputs) -> None:
    database, delta = inputs
    assert_kernels_match_closures(rule, database, delta)


@settings(max_examples=200, deadline=None)
@given(rule=_rules(), inputs=_inputs())
def test_kernels_list_what_closure_plans_list(rule, inputs):
    _check(rule, inputs)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(rule=_rules(), inputs=_inputs())
def test_kernels_list_what_closure_plans_list_long(rule, inputs):
    _check(rule, inputs)
