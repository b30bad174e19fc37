"""Regression tests for plan-cache correctness under mutation and eviction."""

import pytest

from repro.datalog import plan as plan_module
from repro.datalog.ast import Atom, Program, Rule, Variable
from repro.datalog.incremental import IncrementalEngine
from repro.datalog.plan import (
    cached_program_count,
    clear_plan_caches,
    compile_program,
    evict_program,
)


def _rule(head: str, head_vars, body_pred: str, body_vars) -> Rule:
    return Rule(
        head=Atom(head, tuple(Variable(v) for v in head_vars)),
        body=(Atom(body_pred, tuple(Variable(v) for v in body_vars)),),
    )


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_plan_caches()
    yield
    clear_plan_caches()


class TestProgramSnapshot:
    def test_cached_compilation_is_immune_to_later_mutation(self):
        # A program is compiled, then mutated: a later rule re-registers the
        # body predicate S at a different arity.  The cache entry for the
        # *original* structure must keep serving the original program — not a
        # live alias that silently grew the extra rule.
        program = Program([_rule("D", ["x"], "S", ["x"])])
        compile_program(program)
        program.add(_rule("S", ["x", "y"], "T", ["x", "y"]))  # arity change for S
        compile_program(program)

        twin = Program([_rule("D", ["x"], "S", ["x"])])
        compiled = compile_program(twin)
        assert tuple(compiled.program.rules) == tuple(twin.rules)
        # And the compiled plans match the one-rule structure.
        assert len(compiled.rules) == 1

    def test_same_structure_shares_compilation(self):
        first = compile_program(Program([_rule("D", ["x"], "S", ["x"])]))
        second = compile_program(Program([_rule("D", ["x"], "S", ["x"])]))
        assert first is second


class TestDefensiveEviction:
    def test_engine_schema_change_evicts_old_entry(self):
        program = Program([_rule("D", ["x"], "S", ["x"])])
        engine = IncrementalEngine(program, track_provenance=False)
        old_key = tuple(program.rules)
        assert old_key in plan_module._PROGRAM_CACHE
        # Schema change: S becomes an IDB predicate at arity 2.
        program.add(_rule("S", ["x", "y"], "T", ["x", "y"]))
        engine.compiled  # triggers recompilation + defensive eviction
        assert old_key not in plan_module._PROGRAM_CACHE
        assert tuple(program.rules) in plan_module._PROGRAM_CACHE

    def test_engine_still_evaluates_after_schema_change(self):
        program = Program([_rule("D", ["x"], "S", ["x"])])
        engine = IncrementalEngine(program, track_provenance=False)
        from repro.datalog.ast import Fact

        engine.apply_insertions([Fact("S", ("a",))])
        assert engine.database.contains("D", ("a",))
        program.add(_rule("S", ["x", "y"], "T", ["x", "y"]))
        engine.apply_insertions([Fact("T", ("b", "c"))])
        assert engine.database.contains("S", ("b", "c"))

    def test_evict_program_api(self):
        program = Program([_rule("D", ["x"], "S", ["x"])])
        compile_program(program)
        assert evict_program(program) is True
        assert evict_program(program) is False  # already gone

    def test_fifo_eviction_respects_limit(self):
        limit = plan_module._PROGRAM_CACHE_LIMIT
        for index in range(limit + 10):
            compile_program(Program([_rule(f"D{index}", ["x"], "S", ["x"])]))
        assert cached_program_count() <= limit
        # The most recent entries survive; the oldest were evicted.
        newest = tuple(Program([_rule(f"D{limit + 9}", ["x"], "S", ["x"])]).rules)
        oldest = tuple(Program([_rule("D0", ["x"], "S", ["x"])]).rules)
        assert newest in plan_module._PROGRAM_CACHE
        assert oldest not in plan_module._PROGRAM_CACHE
