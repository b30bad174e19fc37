"""Compilation of datalog rules into executable join plans.

Historically the repo carried three tuple-at-a-time evaluators (plain,
incremental, provenance) that each re-planned joins on every rule
application: every candidate tuple allocated a fresh substitution, every
probe re-derived which column index to use, and every semi-naive round
re-sorted the body.
This module does all of that work **once per rule**:

* **Variable slots** — every variable of a rule is assigned an integer slot
  in a flat environment list, so binding/checking a variable is a list
  access instead of a dict copy.
* **Greedy bound-variable atom ordering** — body atoms are ordered so that
  each atom shares as many already-bound variables as possible with the
  prefix before it (the delta atom, when compiling a semi-naive variant,
  always comes first).
* **Pre-resolved index probes** — for each atom the compiler picks the
  first position that is statically ground (a constant, an already-bound
  variable, or a skolem term over bound variables) and emits a
  ``(predicate, position)`` probe against the database's column index; the
  set of all probes a plan can issue is exported as
  :attr:`CompiledProgram.demanded_indexes` so databases can pre-build them.
* **Early guard placement** — comparisons and negated atoms run at the
  earliest point where all their variables are bound, instead of trailing
  the whole join.
* **Head projection closure** — the head atom compiles to a closure from
  the environment to the ground output tuple (building labelled nulls for
  skolem terms); a head of two or more plain variables compiles to an
  ``operator.itemgetter`` over their slots.
* **Copy plans** — a rule ``H(x̄) :- B(ȳ)`` with one positive body atom over
  distinct plain variables and a head of plain variables (the mappings'
  identity copies and the publication rules) skips the closure chain: it
  fires as one comprehension over the delta or relation rows, handing the
  row itself or an ``itemgetter`` pick of it over, with an arity check.
* **Exact delta plans** — the delta plan for body position *i* reads the
  relation *minus the current delta* at every positive position *j < i*
  (ΔRᵢ ⋈ R_old for j < i, ΔRᵢ ⋈ R_new for j > i, as in pydbsp's
  delta-lifted join), so a combination whose rows arrive in one delta fires
  once, at its first delta position, instead of once per delta position.
  Only repeats are left out, so the derivations, the order they are first
  recorded in and the graph's tuple ids are those of full-relation delta
  plans.  A rule whose head predicate is also in its body keeps full
  relations (see :meth:`CompiledRule._build_plan`).

Join plans compile to chains of continuation closures; every plan exposes
``heads`` and ``firings``, which :mod:`repro.datalog.executor` calls with
the database and delta of a rule application, so plain derivation,
delta-substitution and provenance recording share this single backbone.

Compiled rules and programs are cached by *structural identity* (rules are
frozen dataclasses, so two independently compiled copies of the same
mapping program share one plan), bounded by a FIFO eviction policy.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from ..errors import DatalogError
from .ast import (
    Atom,
    Comparison,
    Constant,
    Program,
    Rule,
    SkolemTerm,
    Variable,
    term_variables,
)
from .stratification import stratify

#: Sentinel stored in environment slots that carry no binding yet.
UNBOUND = object()

_EMPTY: tuple = ()


# ---------------------------------------------------------------------------
# Value getters: env -> ground value (for probes, guards, head projection)
# ---------------------------------------------------------------------------

def _value_getter(term, slots: dict[Variable, int], bound: set[Variable]):
    """Compile ``term`` to a closure ``env -> ground value``.

    Every variable the term mentions must already be in ``bound``; rule
    safety (checked at compile time) guarantees this for heads and guards.
    """
    if isinstance(term, Constant):
        value = term.value
        return lambda env: value
    if isinstance(term, Variable):
        if term not in bound:
            raise DatalogError(
                f"variable {term.name} used before it is bound by a positive atom"
            )
        slot = slots[term]
        return lambda env: env[slot]
    if isinstance(term, SkolemTerm):
        getters = tuple(
            _value_getter(argument, slots, bound)
            if isinstance(argument, (Constant, Variable, SkolemTerm))
            else (lambda raw: (lambda env: raw))(argument)
            for argument in term.arguments
        )
        function = term.function
        return lambda env: SkolemTerm(function, tuple(g(env) for g in getters))
    raise DatalogError(f"cannot compile term {term!r}")


def _term_is_ground(term, bound: set[Variable]) -> bool:
    """Can ``term`` be evaluated to a ground value given ``bound``?"""
    if isinstance(term, Constant):
        return True
    if isinstance(term, Variable):
        return term in bound
    if isinstance(term, SkolemTerm):
        return all(v in bound for v in term_variables(term))
    return False


# ---------------------------------------------------------------------------
# Atom matching: row x env -> bool (binding fresh slots in place)
# ---------------------------------------------------------------------------

def _compile_skolem_matcher(
    term: SkolemTerm,
    slots: dict[Variable, int],
    bound: set[Variable],
    fresh: list[int],
):
    """Structural matcher for a skolem term in a body position.

    The candidate value must be a skolem term with the same function and
    arity, and the arguments match recursively (binding still-free
    variables).
    """
    ops: list[tuple] = []
    for index, argument in enumerate(term.arguments):
        if isinstance(argument, Constant):
            ops.append(("const", index, argument.value))
        elif isinstance(argument, Variable):
            if argument in bound:
                ops.append(("check", index, slots[argument]))
            else:
                bound.add(argument)
                fresh.append(slots[argument])
                ops.append(("bind", index, slots[argument]))
        elif isinstance(argument, SkolemTerm):
            ops.append(
                ("skolem", index, _compile_skolem_matcher(argument, slots, bound, fresh))
            )
        else:  # raw pre-ground value inside a skolem term
            ops.append(("const", index, argument))
    function = term.function
    arity = len(term.arguments)

    def matcher(value, env) -> bool:
        if (
            not isinstance(value, SkolemTerm)
            or value.function != function
            or len(value.arguments) != arity
        ):
            return False
        arguments = value.arguments
        for kind, index, payload in ops:
            if kind == "const":
                if payload != arguments[index]:
                    return False
            elif kind == "check":
                if env[payload] != arguments[index]:
                    return False
            elif kind == "bind":
                env[payload] = arguments[index]
            else:  # nested skolem
                if not payload(arguments[index], env):
                    return False
        return True

    return matcher


def _compile_atom_match(
    atom: Atom,
    slots: dict[Variable, int],
    bound: set[Variable],
    skip_position: Optional[int],
):
    """Compile the per-row match test of one positive atom.

    Returns ``(match, fresh_slots)`` where ``match(row, env)`` extends the
    environment in place and ``fresh_slots`` lists the slots this atom may
    bind (they are reset by the executor after each candidate).  The probed
    position, if any, is skipped: the index bucket already guarantees it.
    """
    arity = len(atom.terms)
    const_checks: list[tuple[int, object]] = []
    slot_checks: list[tuple[int, int]] = []  # against slots bound before this atom
    post_checks: list[tuple[int, int]] = []  # against slots this atom binds
    binds: list[tuple[int, int]] = []
    ordered: list[tuple] = []  # generic path preserving position order
    fresh: list[int] = []
    fresh_variables: set[Variable] = set()
    needs_order = False

    for position, term in enumerate(atom.terms):
        if position == skip_position:
            continue
        if isinstance(term, Constant):
            const_checks.append((position, term.value))
            ordered.append(("const", position, term.value))
        elif isinstance(term, Variable):
            if term in fresh_variables:
                # Repeated variable within this atom: its binding happens at
                # an earlier position, so the check must run after the binds.
                post_checks.append((position, slots[term]))
                ordered.append(("check", position, slots[term]))
            elif term in bound:
                slot_checks.append((position, slots[term]))
                ordered.append(("check", position, slots[term]))
            else:
                bound.add(term)
                fresh_variables.add(term)
                fresh.append(slots[term])
                binds.append((position, slots[term]))
                ordered.append(("bind", position, slots[term]))
        elif isinstance(term, SkolemTerm):
            # A later plain-variable check may depend on a slot this matcher
            # binds, so the generic ordered path must be used.
            needs_order = True
            before = set(bound)
            matcher = _compile_skolem_matcher(term, slots, bound, fresh)
            fresh_variables |= bound - before
            ordered.append(("skolem", position, matcher))
        else:
            raise DatalogError(f"cannot compile body term {term!r} of {atom!r}")

    if needs_order:
        steps = tuple(ordered)

        def match(row, env) -> bool:
            if len(row) != arity:
                return False
            for kind, position, payload in steps:
                if kind == "const":
                    if payload != row[position]:
                        return False
                elif kind == "check":
                    if env[payload] != row[position]:
                        return False
                elif kind == "bind":
                    env[payload] = row[position]
                else:
                    if not payload(row[position], env):
                        return False
            return True

        return match, tuple(fresh)

    consts = tuple(const_checks)
    checks = tuple(slot_checks)
    bind_ops = tuple(binds)
    late_checks = tuple(post_checks)

    def match(row, env) -> bool:
        if len(row) != arity:
            return False
        for position, value in consts:
            if value != row[position]:
                return False
        for position, slot in checks:
            if env[slot] != row[position]:
                return False
        for position, slot in bind_ops:
            env[slot] = row[position]
        for position, slot in late_checks:
            if env[slot] != row[position]:
                return False
        return True

    return match, tuple(fresh)


# ---------------------------------------------------------------------------
# Step continuations
# ---------------------------------------------------------------------------
#
# Each ``_make_*_step`` compiles one literal in plan order (so the bound
# variable set and the description evolve forward) and returns a *linker*:
# ``link(next_step) -> step``.  The plan links the steps back to front, so
# every step calls its successor directly.

def _terminal(database, delta, env, regs, emit) -> None:
    emit(env, regs)


def _make_atom_step(
    atom: Atom,
    slots: dict[Variable, int],
    bound: set[Variable],
    reg: int,
    mode: str,
    describe: list[str],
):
    """Compile one positive body atom into a candidate-enumeration step.

    ``mode`` says which rows the atom reads: ``"delta"`` the current delta,
    ``"full"`` the whole relation, ``"old"`` the relation minus the current
    delta (the atoms before the delta atom of an exact delta plan).
    Returns ``(link, probe)`` with ``probe`` the ``(predicate, position)``
    index the step probes, if any.
    """
    predicate = atom.predicate

    probe_position: Optional[int] = None
    probe_getter = None
    if mode != "delta":
        for position, term in enumerate(atom.terms):
            if _term_is_ground(term, bound):
                probe_position = position
                probe_getter = _value_getter(term, slots, bound)
                break

    match, reset = _compile_atom_match(atom, slots, bound, probe_position)
    # ``reset``: the slots this step binds; statically unbound before it.

    if mode == "delta":
        describe.append(f"delta {predicate}")

        def rows_of(database, delta, env):
            return delta.get(predicate, _EMPTY)

    elif probe_position is not None:
        describe.append(f"probe {predicate}[{probe_position}]")
        position = probe_position
        getter = probe_getter

        def rows_of(database, delta, env):
            return database.probe(predicate, position, getter(env))

    else:
        describe.append(f"scan {predicate}")

        def rows_of(database, delta, env):
            return database.rows(predicate)

    if mode == "old":
        describe[-1] += " \\ delta"

        def link(next_step):
            def step(database, delta, env, regs, emit):
                skip = delta.get(predicate)
                for row in rows_of(database, delta, env):
                    if skip and row in skip:
                        continue
                    if match(row, env):
                        regs[reg] = row
                        next_step(database, delta, env, regs, emit)
                    for slot in reset:
                        env[slot] = UNBOUND
            return step

    else:

        def link(next_step):
            def step(database, delta, env, regs, emit):
                for row in rows_of(database, delta, env):
                    if match(row, env):
                        regs[reg] = row
                        next_step(database, delta, env, regs, emit)
                    for slot in reset:
                        env[slot] = UNBOUND
            return step

    return link, (predicate, probe_position) if probe_position is not None else None


def _make_comparison_step(
    comparison: Comparison,
    slots: dict[Variable, int],
    bound: set[Variable],
    describe: list[str],
):
    left = _value_getter(comparison.left, slots, bound)
    right = _value_getter(comparison.right, slots, bound)
    evaluate = comparison.evaluate
    describe.append(f"compare {comparison.op}")

    def link(next_step):
        def step(database, delta, env, regs, emit):
            if evaluate(left(env), right(env)):
                next_step(database, delta, env, regs, emit)
        return step

    return link


def _make_negation_step(
    atom: Atom,
    slots: dict[Variable, int],
    bound: set[Variable],
    describe: list[str],
):
    getters = tuple(_value_getter(term, slots, bound) for term in atom.terms)
    predicate = atom.predicate
    describe.append(f"negation {predicate}")

    def link(next_step):
        def step(database, delta, env, regs, emit):
            if not database.contains(predicate, tuple(g(env) for g in getters)):
                next_step(database, delta, env, regs, emit)
        return step

    return link


# ---------------------------------------------------------------------------
# Literal ordering
# ---------------------------------------------------------------------------

def _order_literals(
    rule: Rule, delta_position: Optional[int]
) -> list[tuple[int, object, bool]]:
    """Greedy bound-variable ordering of the rule body.

    Returns ``(body_position, literal, use_delta)`` triples.  The delta atom
    (if any) leads; each following positive atom is the one sharing the most
    variables with everything bound so far (ties: more statically-ground
    positions, then original body order); comparisons and negations are
    flushed as soon as all their variables are bound.
    """
    positives: list[tuple[int, Atom]] = []
    guards: list[tuple[int, object]] = []
    for position, literal in enumerate(rule.body):
        if position == delta_position:
            continue
        if isinstance(literal, Atom) and not literal.negated:
            positives.append((position, literal))
        else:
            guards.append((position, literal))

    ordered: list[tuple[int, object, bool]] = []
    bound: set[Variable] = set()

    def flush_guards() -> None:
        remaining: list[tuple[int, object]] = []
        for position, literal in guards:
            if literal.variables() <= bound:
                ordered.append((position, literal, False))
            else:
                remaining.append((position, literal))
        guards[:] = remaining

    if delta_position is not None:
        delta_atom = rule.body[delta_position]
        ordered.append((delta_position, delta_atom, True))
        bound |= delta_atom.variables()

    flush_guards()
    while positives:
        def score(entry: tuple[int, Atom]) -> tuple[int, int, int]:
            position, atom = entry
            ground_positions = sum(
                1 for term in atom.terms if _term_is_ground(term, bound)
            )
            return (len(atom.variables() & bound), ground_positions, -position)

        best = max(positives, key=score)
        positives.remove(best)
        ordered.append((best[0], best[1], False))
        bound |= best[1].variables()
        flush_guards()

    if guards:
        # Rule.validate (run before compiling) rejects unsafe rules, so any
        # leftover guard is a compiler bug, not a user error.
        raise DatalogError(
            f"internal error: guards {guards!r} of rule {rule!r} never became ground"
        )
    return ordered


# ---------------------------------------------------------------------------
# Compiled rule / program
# ---------------------------------------------------------------------------

class RulePlan:
    """One executable plan of a rule for one delta position (or none).

    ``heads(database, delta)`` lists the head tuple of every firing, in
    firing order (a head derived twice is listed twice);
    ``firings(database, delta)`` lists every firing as ``(head, *source
    rows)``, the matched positive body rows in body order, for provenance.
    ``kind`` is ``"copy"`` for a copy plan and ``"join"`` for a closure plan;
    ``project`` is the head projection (``env -> head`` for a join plan,
    ``row -> head`` for a copy plan, ``None`` for an identity copy).
    """

    __slots__ = ("kind", "heads", "firings", "project", "probes", "description")

    def __init__(self, kind, heads, firings, project, probes, description) -> None:
        self.kind = kind
        self.heads = heads
        self.firings = firings
        self.project = project
        self.probes = probes
        self.description = description


def _copy_columns(rule: Rule) -> Optional[tuple[int, ...]]:
    """The head as column positions of the body atom, for a copy rule.

    A copy rule ``H(x̄) :- B(ȳ)`` has one positive body atom over distinct
    plain variables and a head of plain variables (each bound by the atom,
    by rule safety); anything else returns ``None`` and keeps a join plan.
    """
    if len(rule.body) != 1:
        return None
    atom = rule.body[0]
    if not isinstance(atom, Atom) or atom.negated:
        return None
    terms = atom.terms
    if len(set(terms)) != len(terms) or not all(
        isinstance(term, Variable) for term in (*terms, *rule.head.terms)
    ):
        return None
    column = {variable: index for index, variable in enumerate(terms)}
    return tuple(column[variable] for variable in rule.head.terms)


def _copy_plan(atom: Atom, columns: tuple[int, ...], use_delta: bool) -> RulePlan:
    """A copy rule fired as one comprehension over the delta or relation rows.

    The head is the row itself (identity), an ``itemgetter`` pick of its
    columns (permutation or projection), or a one-column/empty tuple; rows
    of another arity match nothing, as in a join plan.
    """
    predicate = atom.predicate
    arity = len(atom.terms)
    if use_delta:
        def rows_of(database, delta):
            return delta.get(predicate, _EMPTY)
    else:
        def rows_of(database, delta):
            return database.rows(predicate)

    if columns == tuple(range(arity)):
        project = None

        def heads(database, delta):
            return [row for row in rows_of(database, delta) if len(row) == arity]

        def firings(database, delta):
            return [(row, row) for row in rows_of(database, delta) if len(row) == arity]

    else:
        if len(columns) > 1:
            project = itemgetter(*columns)
        elif columns:
            column = columns[0]
            project = lambda row: (row[column],)
        else:
            project = lambda row: ()

        def heads(database, delta):
            return [project(row) for row in rows_of(database, delta) if len(row) == arity]

        def firings(database, delta):
            return [
                (project(row), row) for row in rows_of(database, delta) if len(row) == arity
            ]

    description = (f"{'delta' if use_delta else 'scan'} {predicate}",)
    return RulePlan("copy", heads, firings, project, frozenset(), description)


def _join_plan(run, project, num_slots: int, reg_count: int, sources: tuple[int, ...]):
    """``(heads, firings)`` of a closure plan: ``run`` enumerates every
    satisfying environment and the per-call ``emit`` collects it."""

    def heads(database, delta):
        found: list = []
        append = found.append

        def emit(env, regs):
            append(project(env))

        run(database, delta, [UNBOUND] * num_slots, [None] * reg_count, emit)
        return found

    pick = itemgetter(*sources) if len(sources) > 1 else None
    source = sources[0] if len(sources) == 1 else None

    def firings(database, delta):
        found: list = []
        append = found.append
        if pick is not None:
            def emit(env, regs):
                append((project(env), *pick(regs)))
        elif source is not None:
            def emit(env, regs):
                append((project(env), regs[source]))
        else:
            def emit(env, regs):
                append((project(env),))

        run(database, delta, [UNBOUND] * num_slots, [None] * reg_count, emit)
        return found

    return heads, firings


class CompiledRule:
    """A rule compiled once: a plain plan plus one delta plan per positive atom.

    ``label`` names the rule in provenance and ``signature`` is
    ``(head predicate, *positive body predicates)``, the relations of each
    firing a plan's ``firings`` lists.
    """

    __slots__ = (
        "rule", "label", "signature", "num_slots", "reg_count",
        "positive_positions", "_plans",
    )

    def __init__(self, rule: Rule) -> None:
        rule.validate()
        self.rule = rule
        self.label = rule.label or f"rule:{rule.head.predicate}"
        variables: set[Variable] = set()
        variables.update(rule.head.variables())
        for literal in rule.body:
            variables.update(literal.variables())
        slots = {
            variable: index
            for index, variable in enumerate(sorted(variables, key=lambda v: v.name))
        }
        self.num_slots = len(slots)
        self.reg_count = len(rule.body)
        self.positive_positions = tuple(
            position
            for position, literal in enumerate(rule.body)
            if isinstance(literal, Atom) and not literal.negated
        )
        self.signature = (
            rule.head.predicate,
            *(rule.body[position].predicate for position in self.positive_positions),
        )
        columns = _copy_columns(rule)
        if columns is not None:
            self._plans: dict[Optional[int], RulePlan] = {
                None: _copy_plan(rule.body[0], columns, False),
                0: _copy_plan(rule.body[0], columns, True),
            }
            return
        self._plans = {None: self._build_plan(slots, None)}
        for position in self.positive_positions:
            self._plans[position] = self._build_plan(slots, position)

    def _build_plan(
        self, slots: dict[Variable, int], delta_position: Optional[int]
    ) -> RulePlan:
        """The closure plan for one delta position (``None``: the plain plan).

        A delta plan is exact: atoms before the delta position read their
        relation minus the current delta, so a combination whose rows all
        arrived in one delta fires once, at its first delta position
        (ΔRᵢ ⋈ R_old for j < i, pydbsp's delta-lifted join).  The executor
        inserts a rule's heads between the firings of its positions, so a
        rule whose head predicate is also in its body keeps full relations:
        skipping would defer some combinations to the next round instead of
        dropping duplicates, changing the order derivations are recorded in.
        """
        rule = self.rule
        ordered = _order_literals(rule, delta_position)
        recursive = self.signature[0] in self.signature[1:]
        bound: set[Variable] = set()
        probes: set[tuple[str, int]] = set()
        description: list[str] = []

        links: list = []
        for position, literal, use_delta in ordered:
            if isinstance(literal, Comparison):
                links.append(_make_comparison_step(literal, slots, bound, description))
            elif literal.negated:
                links.append(_make_negation_step(literal, slots, bound, description))
            else:
                if use_delta:
                    mode = "delta"
                elif (
                    delta_position is not None
                    and position < delta_position
                    and not recursive
                ):
                    mode = "old"
                else:
                    mode = "full"
                link, probe = _make_atom_step(
                    literal, slots, bound, position, mode, description
                )
                if probe is not None:
                    probes.add(probe)
                links.append(link)
        run = _terminal
        for link in reversed(links):
            run = link(run)

        head_terms = rule.head.terms
        project_getters = tuple(_value_getter(term, slots, bound) for term in head_terms)
        if len(head_terms) > 1 and all(isinstance(term, Variable) for term in head_terms):
            # A head of plain variables is a pick of env slots (compiling the
            # getters above has checked that each is bound).  With one index
            # itemgetter returns a scalar, not a 1-tuple; constants and skolem
            # terms need the getters.
            project = itemgetter(*(slots[term] for term in head_terms))
        else:
            def project(env) -> tuple:
                return tuple(getter(env) for getter in project_getters)

        heads, firings = _join_plan(
            run, project, self.num_slots, self.reg_count, self.positive_positions
        )
        return RulePlan(
            "join", heads, firings, project, frozenset(probes), tuple(description)
        )

    def plan_for(self, delta_position: Optional[int] = None) -> RulePlan:
        try:
            return self._plans[delta_position]
        except KeyError:
            raise DatalogError(
                f"body position {delta_position} of rule {self.rule!r} is not a "
                "positive atom; no delta plan exists for it"
            ) from None

    @property
    def demanded_indexes(self) -> frozenset[tuple[str, int]]:
        demanded: set[tuple[str, int]] = set()
        for plan in self._plans.values():
            demanded |= plan.probes
        return frozenset(demanded)


#: One semi-naive firing: ``(rank of the rule in its stratum, delta body
#: position, compiled rule)``.
DispatchEntry = tuple[int, int, CompiledRule]
_RANK_POSITION = itemgetter(0, 1)


def delta_dispatch(stratum: Sequence[CompiledRule]) -> dict[str, tuple[DispatchEntry, ...]]:
    """Map each positive body predicate of ``stratum`` to the firings a delta
    over it triggers, in ``(rank, position)`` order."""
    dispatch: dict[str, list[DispatchEntry]] = {}
    for rank, compiled in enumerate(stratum):
        body = compiled.rule.body
        for position in compiled.positive_positions:
            dispatch.setdefault(body[position].predicate, []).append(
                (rank, position, compiled)
            )
    return {predicate: tuple(entries) for predicate, entries in dispatch.items()}


def triggered(
    dispatch: dict[str, tuple[DispatchEntry, ...]], predicates: Iterable[str]
) -> Sequence[DispatchEntry]:
    """The firings a delta over ``predicates`` triggers, in ``(rank,
    position)`` order — the order a scan of the stratum's rules and their
    positive positions would visit them, so intra-round insertions and the
    recorded derivations come out the same."""
    hits = [dispatch[predicate] for predicate in predicates if predicate in dispatch]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        return ()
    return sorted(chain.from_iterable(hits), key=_RANK_POSITION)


class CompiledProgram:
    """A program compiled once: strata of compiled rules plus demanded indexes.

    ``dispatch`` holds one :func:`delta_dispatch` index per stratum, built
    here once, so a semi-naive round looks up the ``(rule, position)`` pairs
    its delta predicates trigger instead of scanning every rule of the
    stratum: a round costs what its delta can fire, not the stratum's size.
    """

    __slots__ = ("program", "strata", "demanded_indexes", "dispatch")

    def __init__(self, program: Program) -> None:
        program.validate()
        # Snapshot the rule list: Program is mutable, and cached compilations
        # are shared across callers.  Without the copy, a caller mutating its
        # program after compiling (e.g. registering an extra rule that gives
        # a predicate a new arity) would silently rewrite the ``program``
        # attribute of the cache entry other callers receive.
        self.program = Program(list(program.rules))
        self.strata: tuple[tuple[CompiledRule, ...], ...] = tuple(
            tuple(compile_rule(rule) for rule in stratum)
            for stratum in stratify(program)
        )
        demanded: set[tuple[str, int]] = set()
        for stratum in self.strata:
            for compiled in stratum:
                demanded |= compiled.demanded_indexes
        self.demanded_indexes = frozenset(demanded)
        self.dispatch: tuple[dict[str, tuple[DispatchEntry, ...]], ...] = tuple(
            delta_dispatch(stratum) for stratum in self.strata
        )

    @property
    def rules(self) -> tuple[CompiledRule, ...]:
        return tuple(compiled for stratum in self.strata for compiled in stratum)


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------

_RULE_CACHE: dict[Rule, CompiledRule] = {}
_RULE_CACHE_LIMIT = 4096
_PROGRAM_CACHE: dict[tuple, CompiledProgram] = {}
_PROGRAM_CACHE_LIMIT = 256


def compile_rule(rule: Rule) -> CompiledRule:
    """Compile (or fetch the cached compilation of) a single rule."""
    compiled = _RULE_CACHE.get(rule)
    if compiled is None:
        compiled = CompiledRule(rule)
        if len(_RULE_CACHE) >= _RULE_CACHE_LIMIT:
            _RULE_CACHE.pop(next(iter(_RULE_CACHE)))
        _RULE_CACHE[rule] = compiled
    return compiled


def compile_program(program: Program) -> CompiledProgram:
    """Compile (or fetch the cached compilation of) a whole program.

    Keyed by the structural identity of the rule list, so every engine,
    replica, or simulation epoch evaluating the same mapping program — even
    through independently constructed ``Program`` objects — shares one set
    of strata and plans.
    """
    key = tuple(program.rules)
    compiled = _PROGRAM_CACHE.get(key)
    if compiled is None:
        compiled = CompiledProgram(program)
        if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_LIMIT:
            _PROGRAM_CACHE.pop(next(iter(_PROGRAM_CACHE)))
        _PROGRAM_CACHE[key] = compiled
    return compiled


def evict_program(program_or_key) -> bool:
    """Defensively evict one program's cached compilation.

    Called on schema change (e.g. when an engine's mapping program gains
    rules that register a predicate at a new arity): the previously cached
    entry for the old structure is dropped so no caller can be served a plan
    compiled against the superseded schema.  Accepts a :class:`Program` or a
    rule-tuple cache key; returns True when an entry was evicted.
    """
    key = (
        tuple(program_or_key.rules)
        if isinstance(program_or_key, Program)
        else tuple(program_or_key)
    )
    return _PROGRAM_CACHE.pop(key, None) is not None


def cached_program_count() -> int:
    """Number of cached program compilations (introspection for tests)."""
    return len(_PROGRAM_CACHE)


def clear_plan_caches() -> None:
    """Drop all cached compilations (test isolation helper)."""
    _RULE_CACHE.clear()
    _PROGRAM_CACHE.clear()
