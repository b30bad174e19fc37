"""Datalog substrate used to evaluate schema mappings.

The ORCHESTRA update-exchange engine compiles schema mappings
(tuple-generating dependencies) into datalog rules and evaluates them
bottom-up over the peers' local instances.  This package provides that
substrate from scratch:

* :mod:`repro.datalog.ast` — terms, atoms, rules and programs,
* :mod:`repro.datalog.parser` — a small textual syntax for rules and facts,
* :mod:`repro.datalog.plan` — one-time compilation of rules into generated
  Python kernels (greedy atom ordering, pre-resolved index probes, checks
  inlined as ``if`` tests), cached by structural identity and by shape,
* :mod:`repro.datalog.executor` — the shared execution engine driving the
  compiled plans with pluggable firing hooks,
* :mod:`repro.datalog.evaluation` — naive and semi-naive bottom-up evaluation,
* :mod:`repro.datalog.provenance_eval` — evaluation that records semiring
  provenance for every derived tuple,
* :mod:`repro.datalog.stratification` — stratified negation,
* :mod:`repro.datalog.skolem` — skolem functions for existential variables,
* :mod:`repro.datalog.incremental` — delta-rule insertion propagation and
  DRed-style deletion propagation.
"""

from .ast import Atom, Constant, Fact, Program, Rule, SkolemTerm, Variable
from .evaluation import Database, evaluate_program
from .executor import ExecutionStats, fire_rule, run_program, run_stratum
from .incremental import IncrementalEngine
from .parser import parse_atom, parse_fact, parse_program, parse_rule
from .plan import CompiledProgram, CompiledRule, compile_program, compile_rule
from .provenance_eval import ProvenanceDatabase, evaluate_with_provenance
from .skolem import SkolemFactory
from .stratification import stratify

__all__ = [
    "Atom",
    "CompiledProgram",
    "CompiledRule",
    "Constant",
    "Database",
    "ExecutionStats",
    "Fact",
    "IncrementalEngine",
    "Program",
    "ProvenanceDatabase",
    "Rule",
    "SkolemFactory",
    "SkolemTerm",
    "Variable",
    "compile_program",
    "compile_rule",
    "evaluate_program",
    "evaluate_with_provenance",
    "fire_rule",
    "parse_atom",
    "parse_fact",
    "parse_program",
    "parse_rule",
    "run_program",
    "run_stratum",
    "stratify",
]
