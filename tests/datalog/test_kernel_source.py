"""Rule kernels never execute spec text.

A kernel is Python source generated from a rule, so anything of the rule
written into it would be code.  Predicate names, constants, skolem function
names and comparison operators are passed to the generated factory as
values and variables are renamed, so no spec text reaches the source.
Rules built through the AST (the parser would reject these names) whose
every name and string constant holds quotes, backslashes, newlines, braces
or a call of ``os.system`` must evaluate exactly as the interpreted
reference does, and their kernels must contain none of that text.
"""

from __future__ import annotations

import pytest

from repro.datalog.ast import Atom, Comparison, Constant, Fact, Program, Rule, SkolemTerm, Variable
from repro.datalog.evaluation import Database, evaluate_program
from repro.datalog.plan import compile_program

from test_plan_executor import _relation_map, interpreted_fixpoint

HOSTILE = (
    "__import__('os').system('x')",
    'say "hi"',
    "back\\slash",
    "new\nline",
    "{braces}",
    "f'{__import__(\"os\").getcwd()}'",
    "x') or (True",
)


def _name(index: int, text: str) -> str:
    return f"{text}#{index}"


def _hostile_program() -> tuple[Program, Database]:
    source, middle, target, other = (_name(index, text) for index, text in enumerate(HOSTILE[:4]))
    x, y, z = (Variable(_name(index, text)) for index, text in enumerate(HOSTILE[4:7]))
    null = HOSTILE[0]
    rules = [
        # a copy, a join with a string constant and a comparison
        Rule(Atom(middle, (y, x)), (Atom(source, (x, y)),)),
        Rule(
            Atom(target, (x, SkolemTerm(null, (x, z, Constant(HOSTILE[2]))), Constant(HOSTILE[3]))),
            (
                Atom(middle, (y, x)),
                Atom(source, (x, Constant(HOSTILE[5]))),
                Atom(other, (x, z)),
                Comparison("!=", z, Constant(HOSTILE[1])),
            ),
            label=HOSTILE[6],
        ),
        # a skolem term in a body atom, and a negation
        Rule(
            Atom(other, (z, x)),
            (
                Atom(target, (x, SkolemTerm(null, (x, z, Constant(HOSTILE[2]))), y)),
                Atom(source, (z, Constant(HOSTILE[5]))),
                Atom(middle, (Constant(HOSTILE[4]), x), negated=True),
            ),
        ),
    ]
    facts = [
        Fact(source, ("a", HOSTILE[5])),
        Fact(source, ("b", HOSTILE[5])),
        Fact(source, ("a", "b")),
        Fact(source, (HOSTILE[0], HOSTILE[5])),
        Fact(source, ("z", HOSTILE[5])),
        Fact(other, ("a", "z")),
        Fact(other, ("b", HOSTILE[1])),
        Fact(other, (HOSTILE[0], "\\")),
    ]
    return Program(rules), Database(facts)


def test_hostile_names_evaluate_as_the_interpreted_reference():
    program, base = _hostile_program()
    expected = interpreted_fixpoint(program, base)
    assert _relation_map(evaluate_program(program, base)) == _relation_map(expected)
    # Every rule fired: the third one's head feeds the second one back.
    assert ("z", "a") in expected.relation(_name(3, HOSTILE[3]))
    assert expected.count(_name(2, HOSTILE[2])) == 3


def test_kernel_source_holds_no_spec_text():
    program, _ = _hostile_program()
    texts = [*HOSTILE, *(_name(index, text) for index, text in enumerate(HOSTILE))]
    for compiled in compile_program(program).rules:
        for position in (None, *compiled.positive_positions):
            source = compiled.plan_for(position).source
            compile(source, "<kernel>", "exec")
            leaked = [text for text in texts if text in source]
            assert not leaked, (leaked, source)
            for fragment in ("import", "system", '"', "'", "\\", "{", "#"):
                assert fragment not in source, (fragment, source)


def test_plan_source_is_read_only():
    plan = compile_program(_hostile_program()[0]).rules[0].plan_for(None)
    with pytest.raises(AttributeError):
        plan.source = "def make(): pass"


def test_explain_prints_every_rules_kernel(two_peer_system):
    text = two_peer_system.explain()
    compiled = two_peer_system.engine.compiled_program
    for rule in compiled.rules:
        kernel = "\n".join(
            f"    {line}" if line else "" for line in rule.plan_for(None).source.splitlines()
        )
        assert kernel in text
    assert text.count("def make(") == len(compiled.rules)
