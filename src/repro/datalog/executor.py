"""Shared execution engine for compiled datalog rules.

All three evaluation modes of the repo — plain bottom-up evaluation
(:mod:`repro.datalog.evaluation`), incremental delta propagation
(:mod:`repro.datalog.incremental`), and provenance-recording evaluation
(:mod:`repro.datalog.provenance_eval`) — drive the functions in this module.
What differs between them is only the *firing hook*:

* plain derivation collects the projected head tuples;
* delta-seminaive execution substitutes a delta relation for one body atom
  (``delta_position``) so a rule only re-fires on new tuples, and each
  combination of new rows fires once (the plans are exact, see
  :mod:`repro.datalog.plan`);
* provenance recording is set-at-a-time: each rule application that fires
  makes one ``recorder(label, (head_predicate, *source_predicates),
  firings)`` call, each firing ``(head_values, *source_rows)`` — the head
  and the matched positive body rows in body order.  The recorder is
  :meth:`repro.provenance.graph.ProvenanceGraph.add_derivations`, which
  interns the whole batch as derivation hyper-edges; semiring questions are
  evaluated on that graph later instead of multiplying out polynomials per
  derived tuple.

A rule application is one call of a generated kernel: the plan's
``heads`` (plain and delta derivation) or ``firings`` (provenance
recording), straight-line loops that :mod:`repro.datalog.plan` writes once
per rule shape, with the rule's names and constants passed in as values
and never written into the source.

The semi-naive fixpoint loop itself (:func:`run_stratum` /
:func:`run_program`) is likewise shared, so the firing semantics of a whole
evaluation is chosen by passing (or omitting) a ``recorder``.

:class:`PythonExecutionBackend` is the executor the incremental
engine holds: a stateless wrapper over :func:`run_program` plus the
delta-propagation loop, with its counters in :class:`ExecutionStats`.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Callable, Optional, Sequence

from ..errors import DatalogError
from ..obs import NULL_SPAN
from .plan import (
    CompiledProgram,
    CompiledRule,
    DispatchEntry,
    delta_dispatch,
    triggered,
)

#: ``recorder(label, (head_predicate, *source_predicates), firings)`` —
#: invoked once per rule application that fires, with ``firings`` the list of
#: its firings, each ``(head_values, *source_rows)``: the derived head tuple
#: and the matched positive body rows in original body order.
Recorder = Callable[[str, tuple[str, ...], list[tuple]], object]

_HEAD = itemgetter(0)


class ExecutionStats:
    """Counters one evaluation or maintenance step accumulates across its
    executor calls (an incremental step returns them on its
    :class:`~repro.datalog.incremental.MaintenanceResult`)."""

    __slots__ = ("rules_fired", "tuples_derived", "rounds")

    def __init__(self) -> None:
        self.rules_fired = 0
        self.tuples_derived = 0
        self.rounds = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "rules_fired": self.rules_fired,
            "tuples_derived": self.tuples_derived,
            "rounds": self.rounds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionStats(rules_fired={self.rules_fired}, "
            f"tuples_derived={self.tuples_derived}, rounds={self.rounds})"
        )


def fire_rule(
    compiled: CompiledRule,
    database,
    delta: Optional[dict[str, set[tuple]]] = None,
    delta_position: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    stats: Optional[ExecutionStats] = None,
) -> set[tuple]:
    """Apply one compiled rule and return the set of derivable head tuples.

    With ``delta``/``delta_position`` the atom at that body position matches
    the delta relation instead of the database, and the positive atoms
    before it match their relation minus the delta (semi-naive firing: each
    combination of delta rows fires at its first delta position only).  With
    a ``recorder`` the application's firings are reported in one call
    before the heads are returned.  ``stats.rules_fired`` counts firings.
    """
    plan = compiled.plan_for(delta_position if delta is not None else None)
    if recorder is None:
        heads = plan.heads(database, delta)
        fired, derived = len(heads), set(heads)
    else:
        firings = plan.firings(database, delta)
        if firings:
            recorder(compiled.label, compiled.signature, firings)
        fired, derived = len(firings), set(map(_HEAD, firings))
    if stats is not None:
        stats.rules_fired += fired
    return derived


def _traced_fire(
    tracer,
    compiled: CompiledRule,
    database,
    delta=None,
    delta_position=None,
    recorder: Optional[Recorder] = None,
    stats: Optional[ExecutionStats] = None,
) -> set[tuple]:
    """One ``rule.fire`` span around :func:`fire_rule` (tracing paths only)."""
    rule = compiled.rule
    with tracer.span("rule.fire", rule=rule.label or rule.head.predicate):
        return fire_rule(
            compiled, database, delta, delta_position, recorder=recorder, stats=stats
        )


def run_stratum(
    stratum: Sequence[CompiledRule],
    database,
    recorder: Optional[Recorder] = None,
    stats: Optional[ExecutionStats] = None,
    max_iterations: int = 0,
    tracer=None,
    dispatch: Optional[dict[str, tuple[DispatchEntry, ...]]] = None,
) -> dict[str, set[tuple]]:
    """Semi-naive fixpoint of one stratum; mutates ``database`` in place.

    Returns the tuples newly derived in this stratum, per predicate.  The
    first round applies every rule; each later round fires only the
    ``(rule, position)`` pairs of ``dispatch`` (the stratum's
    :func:`~repro.datalog.plan.delta_dispatch` index, built here when not
    given) whose predicate the previous round derived.  With a ``tracer``
    every rule application is wrapped in a ``rule.fire`` span; the disabled
    path pays exactly one ``is None`` check per firing.
    """
    if dispatch is None:
        dispatch = delta_dispatch(stratum)
    all_new: dict[str, set[tuple]] = defaultdict(set)

    # First round: naive application of every rule.
    delta: dict[str, set[tuple]] = defaultdict(set)
    for compiled in stratum:
        head = compiled.rule.head.predicate
        if tracer is None:
            derived = fire_rule(compiled, database, recorder=recorder, stats=stats)
        else:
            derived = _traced_fire(
                tracer, compiled, database, recorder=recorder, stats=stats
            )
        fresh = database.add_many(head, derived)
        if fresh:
            delta[head].update(fresh)
            all_new[head].update(fresh)

    iterations = 1
    while delta:
        if max_iterations and iterations >= max_iterations:
            raise DatalogError(
                f"evaluation did not converge within {max_iterations} iterations"
            )
        if stats is not None:
            stats.rounds += 1
        next_delta: dict[str, set[tuple]] = defaultdict(set)
        # The delta holds only this stratum's heads, so occurrences of
        # lower-strata predicates (fully applied above) never trigger.
        for _, position, compiled in triggered(dispatch, delta):
            head = compiled.rule.head.predicate
            if tracer is None:
                derived = fire_rule(
                    compiled, database, delta, position,
                    recorder=recorder, stats=stats,
                )
            else:
                derived = _traced_fire(
                    tracer, compiled, database, delta, position,
                    recorder=recorder, stats=stats,
                )
            fresh = database.add_many(head, derived)
            if fresh:
                next_delta[head].update(fresh)
                all_new[head].update(fresh)
        delta = next_delta
        iterations += 1
    if stats is not None:
        for values in all_new.values():
            stats.tuples_derived += len(values)
    return dict(all_new)


def run_program(
    compiled: CompiledProgram,
    database,
    recorder: Optional[Recorder] = None,
    stats: Optional[ExecutionStats] = None,
    max_iterations: int = 0,
    tracer=None,
) -> dict[str, set[tuple]]:
    """Evaluate a compiled program to fixpoint, stratum by stratum.

    Mutates ``database`` in place (callers copy first when needed) after
    pre-building every column index the compiled plans can probe.  Returns
    all newly derived tuples per predicate.
    """
    database.ensure_indexes(compiled.demanded_indexes)
    all_new: dict[str, set[tuple]] = {}
    for index, stratum in enumerate(compiled.strata):
        span = (
            tracer.span("exchange.stratum", index=index, rules=len(stratum))
            if tracer is not None
            else NULL_SPAN
        )
        with span:
            derived = run_stratum(
                stratum, database, recorder=recorder, stats=stats,
                max_iterations=max_iterations, tracer=tracer,
                dispatch=compiled.dispatch[index],
            )
        for predicate, values in derived.items():
            all_new.setdefault(predicate, set()).update(values)
    return all_new


class PythonExecutionBackend:
    """The executor behind :class:`~repro.datalog.incremental.IncrementalEngine`.

    A thin, stateless wrapper over this module's :func:`run_program` plus the
    semi-naive delta-propagation loop.
    """

    # Installed (as an instance attribute) by IncrementalEngine when the
    # owning system carries an Observability holder; backends stay usable
    # standalone with tracing and metrics simply absent.
    observability = None

    def _tracer(self):
        obs = self.observability
        return obs.active_tracer() if obs is not None else None

    def run_program(
        self,
        compiled: CompiledProgram,
        database,
        recorder: Optional[Recorder] = None,
        stats: Optional[ExecutionStats] = None,
        max_iterations: int = 0,
    ) -> dict[str, set[tuple]]:
        return run_program(
            compiled, database, recorder=recorder, stats=stats,
            max_iterations=max_iterations, tracer=self._tracer(),
        )

    def propagate(
        self,
        compiled: CompiledProgram,
        database,
        delta: dict[str, set[tuple]],
        recorder: Optional[Recorder] = None,
        stats: Optional[ExecutionStats] = None,
    ) -> dict[str, set[tuple]]:
        """Semi-naive propagation of ``delta`` through every stratum.

        Each round fires exactly the ``(rule, position)`` pairs of the
        stratum's :attr:`CompiledProgram.dispatch` index whose predicate is
        in the round's delta, in ``(rule, position)`` order, so a
        transaction that reaches one rule of a large stratum fires that rule
        and visits no other.
        """
        tracer = self._tracer()
        inserted: dict[str, set[tuple]] = defaultdict(set)
        # Derivations of earlier strata join the delta seen by later strata.
        accumulated = {predicate: set(values) for predicate, values in delta.items()}
        for index, stratum in enumerate(compiled.strata):
            dispatch = compiled.dispatch[index]
            span = (
                tracer.span("exchange.stratum", index=index, rules=len(stratum))
                if tracer is not None
                else NULL_SPAN
            )
            with span:
                current = {
                    predicate: set(values) for predicate, values in accumulated.items()
                }
                while current:
                    if stats is not None:
                        stats.rounds += 1
                    next_delta: dict[str, set[tuple]] = defaultdict(set)
                    for _, position, rule in triggered(dispatch, current):
                        head = rule.rule.head.predicate
                        if tracer is None:
                            derived = fire_rule(
                                rule, database, current, position,
                                recorder=recorder, stats=stats,
                            )
                        else:
                            derived = _traced_fire(
                                tracer, rule, database, current, position,
                                recorder=recorder, stats=stats,
                            )
                        fresh = database.add_many(head, derived)
                        if fresh:
                            next_delta[head].update(fresh)
                            inserted[head].update(fresh)
                            accumulated.setdefault(head, set()).update(fresh)
                    current = next_delta
        if stats is not None:
            for values in inserted.values():
                stats.tuples_derived += len(values)
        return dict(inserted)

    def explain(self, compiled: CompiledProgram) -> list[str]:
        """Human-readable plan dump: per compiled rule, one line with its
        plain plan's steps, then that plan's kernel source, indented."""
        lines = []
        for rule in compiled.rules:
            plan = rule.plan_for(None)
            lines.append(f"{rule.rule}  --  " + " -> ".join(plan.description))
            lines += [f"    {line}" if line else "" for line in plan.source.splitlines()]
        return lines

