"""Compilation of datalog rules into generated Python kernels.

Historically the repo carried three tuple-at-a-time evaluators (plain,
incremental, provenance) that each re-planned joins on every rule
application, and then a chain of continuation closures per rule that still
interpreted each candidate row (a match loop over op tuples, a getter
lambda per head term).  This module plans each rule **once** and writes
every plan out as straight-line Python source:

* **Greedy bound-variable atom ordering** — body atoms are ordered so that
  each atom shares as many already-bound variables as possible with the
  prefix before it (the delta atom, when compiling a semi-naive variant,
  always comes first).
* **Pre-resolved index probes** — for each atom the compiler picks the
  first position that is statically ground (a constant, an already-bound
  variable, or a skolem term over bound variables) and probes the
  database's column index on it; the set of all ``(predicate, position)``
  probes a plan can issue is exported as
  :attr:`CompiledProgram.demanded_indexes` so databases can pre-build them.
* **Early guard placement** — comparisons and negated atoms run at the
  earliest point where all their variables are bound, instead of trailing
  the whole join.
* **One kernel per plan** — a plan is two generated functions,
  ``heads(database, delta)`` and ``firings(database, delta)``: nested
  ``for`` loops over the delta rows, index buckets or relation rows, one
  per positive atom in plan order, with the arity, constant,
  bound-variable, repeated-variable and nested-skolem checks inlined as
  ``if`` tests and the guards where the ordering puts them.  Variables are
  locals; each kernel fetches the column indexes it probes once per call.
  The head is a tuple display (labelled nulls built through
  :func:`~repro.datalog.ast.ground_term`), or the matched row itself
  when the head repeats an atom whose columns it binds, as the mappings'
  identity copies do.
* **Kernels keyed by shape** — no spec text enters generated source:
  predicate names, constants, skolem function names and comparison
  operators are arguments of a generated factory ``make(...)``, and
  variables are numbered in binding order.  The source is therefore a
  function of the rule's shape alone and is the cache key of its compiled
  factory, so one ``compile()`` serves every rule of a shape (the 201 copy
  rules of a star network share two).  :attr:`RulePlan.source` shows it.
* **Exact delta plans** — the delta plan for body position *i* reads the
  relation *minus the current delta* at every positive position *j < i*
  (ΔRᵢ ⋈ R_old for j < i, ΔRᵢ ⋈ R_new for j > i, as in pydbsp's
  delta-lifted join), so a combination whose rows arrive in one delta fires
  once, at its first delta position, instead of once per delta position.
  Only repeats are left out, so the derivations, the order they are first
  recorded in and the graph's tuple ids are those of full-relation delta
  plans.  A rule whose head predicate is also in its body keeps full
  relations (see :meth:`CompiledRule._build_plan`).

:mod:`repro.datalog.executor` calls a plan's ``heads`` or ``firings`` with
the database and delta of a rule application, so plain derivation,
delta-substitution and provenance recording share this single backbone.

Compiled rules and programs are cached by *structural identity* (rules are
frozen dataclasses, so two independently compiled copies of the same
mapping program share one plan), bounded by a FIFO eviction policy.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Callable, Collection, Iterable, Optional, Sequence

from ..errors import DatalogError
from .ast import (
    Atom,
    Comparison,
    Constant,
    Program,
    Rule,
    SkolemTerm,
    Variable,
    ground_term,
    term_variables,
)
from .stratification import stratify


def _term_is_ground(term, bound: Collection[Variable]) -> bool:
    """Can ``term`` be evaluated to a ground value given ``bound``?"""
    if isinstance(term, Constant):
        return True
    if isinstance(term, Variable):
        return term in bound
    if isinstance(term, SkolemTerm):
        return all(v in bound for v in term_variables(term))
    return False


def _occurrences(terms, counts: dict[Variable, int]) -> None:
    """Count every variable occurrence in ``terms`` (recursing into skolems)."""
    for term in terms:
        if isinstance(term, Variable):
            counts[term] = counts.get(term, 0) + 1
        elif isinstance(term, SkolemTerm):
            _occurrences(term.arguments, counts)


def _display(items: Sequence[str]) -> str:
    """A Python tuple display of ``items``."""
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


# ---------------------------------------------------------------------------
# Kernel source
# ---------------------------------------------------------------------------

#: The globals every kernel runs with; nothing else is in scope.
_KERNEL_GLOBALS = {"SkolemTerm": SkolemTerm, "ground_term": ground_term}


class _KernelWriter:
    """Writes the loop nest of one plan.

    Spec values are never written into the source: each becomes a factory
    parameter (``p`` predicates, ``c`` constants, ``f`` skolem functions,
    ``e`` comparison evaluators) whose value is kept in :attr:`arguments`.
    """

    def __init__(self, used: dict[Variable, int]) -> None:
        #: How often each variable occurs; one occurrence is never read back.
        self.used = used
        self.parameters: list[str] = []
        self.arguments: list[object] = []
        self.prologue: list[str] = []
        self.body: list[str] = []
        self.depth = 0
        self.locals: dict[Variable, str] = {}
        self.temps = 0

    def argument(self, kind: str, value) -> str:
        name = f"{kind}{len(self.arguments)}"
        self.parameters.append(name)
        self.arguments.append(value)
        return name

    def temp(self, kind: str) -> str:
        self.temps += 1
        return f"{kind}{self.temps}"

    def line(self, text: str) -> None:
        self.body.append("    " * self.depth + text)

    def reject(self, condition: str) -> None:
        """Skip the current candidate when ``condition`` holds (before any
        loop there is no candidate yet, so the kernel returns)."""
        self.line(f"if {condition}: {'continue' if self.depth else 'return found'}")

    def bind(self, variable: Variable) -> str:
        """The local a first occurrence of ``variable`` is stored in
        (``_`` when nothing reads it back)."""
        if self.used.get(variable, 0) < 2:
            self.locals[variable] = "_"
            return "_"
        name = self.locals[variable] = f"v{len(self.locals)}"
        return name

    def value(self, term) -> str:
        """An expression for a term whose variables are all bound."""
        if isinstance(term, Variable):
            return self.locals[term]
        if isinstance(term, Constant):
            return self.argument("c", term.value)
        if isinstance(term, SkolemTerm):
            arguments = [
                self.value(argument)
                if isinstance(argument, (Constant, Variable, SkolemTerm))
                else self.argument("c", argument)
                for argument in term.arguments
            ]
            function = self.argument("f", term.function)
            return f"ground_term({function}, {_display(arguments)})"
        raise DatalogError(f"cannot compile term {term!r}")

    def match(self, term, held: str) -> None:
        """Check (and bind from) the value ``held`` (a local or a subscript)
        against a term that is not a first plain-variable occurrence."""
        if isinstance(term, Variable):
            if term in self.locals:
                self.reject(f"{self.locals[term]} != {held}")
            elif (name := self.bind(term)) != "_":
                self.line(f"{name} = {held}")
        elif isinstance(term, SkolemTerm):
            function = self.argument("f", term.function)
            self.reject(
                f"not isinstance({held}, SkolemTerm) or {held}.function != {function}"
                f" or len({held}.arguments) != {len(term.arguments)}"
            )
            arguments = self.temp("a")
            self.line(f"{arguments} = {held}.arguments")
            for index, argument in enumerate(term.arguments):
                item = f"{arguments}[{index}]"
                if isinstance(argument, SkolemTerm):
                    nested, item = item, self.temp("h")
                    self.line(f"{item} = {nested}")
                self.match(argument, item)
        else:  # a constant, or a raw value inside a skolem term
            value = term.value if isinstance(term, Constant) else term
            self.reject(f"{self.argument('c', value)} != {held}")

    def atom(self, atom: Atom, position: int, mode: str, describe: list[str]):
        """Open the loop of one positive atom; returns its probe, if any.

        ``mode`` says which rows the atom reads: ``"delta"`` the current
        delta, ``"full"`` the whole relation, ``"old"`` the relation minus
        the current delta (the atoms before the delta atom of an exact delta
        plan).
        """
        predicate = self.argument("p", atom.predicate)
        probe: Optional[int] = None
        if mode != "delta":
            probe = next(
                (
                    index
                    for index, term in enumerate(atom.terms)
                    if _term_is_ground(term, self.locals)
                ),
                None,
            )
        row = f"r{position}"
        if mode == "delta":
            self.prologue.append(f"d{position} = delta.get({predicate}, ())")
            rows = f"d{position}"
            describe.append(f"delta {atom.predicate}")
        elif probe is not None:
            self.prologue.append(f"x{position} = database.column_index({predicate}, {probe})")
            rows = f"x{position}.get({self.value(atom.terms[probe])}, ())"
            describe.append(f"probe {atom.predicate}[{probe}]")
        else:
            self.prologue.append(f"t{position} = database.rows({predicate})")
            rows = f"t{position}"
            describe.append(f"scan {atom.predicate}")
        self.line(f"for {row} in {rows}:")
        self.depth += 1
        if mode == "old":
            describe[-1] += " \\ delta"
            self.prologue.append(f"s{position} = delta.get({predicate}, ())")
            self.reject(f"{row} in s{position}")
        self.reject(f"len({row}) != {len(atom.terms)}")

        # A variable is bound where it first occurs in column order (skolem
        # arguments included).  A first occurrence as a plain column unpacks
        # straight into its local; every other column is held in a
        # temporary and matched, in column order, after the unpacking.
        targets: list[str] = []
        later: list[tuple[object, str]] = []
        in_skolems: set[Variable] = set()
        for index, term in enumerate(atom.terms):
            if index == probe:  # the index bucket already guarantees it
                targets.append("_")
            elif (
                isinstance(term, Variable)
                and term not in self.locals
                and term not in in_skolems
            ):
                targets.append(self.bind(term))
            else:
                held = self.temp("h")
                targets.append(held)
                later.append((term, held))
                if isinstance(term, SkolemTerm):
                    in_skolems.update(term_variables(term))
        named = [(index, name) for index, name in enumerate(targets) if name != "_"]
        if len(named) == 1:
            index, name = named[0]
            self.line(f"{name} = {row}[{index}]")
        elif named:
            self.line(f"{', '.join(targets)} = {row}")
        for term, held in later:
            self.match(term, held)
        return (atom.predicate, probe) if probe is not None else None

    def comparison(self, comparison: Comparison, describe: list[str]) -> None:
        left, right = self.value(comparison.left), self.value(comparison.right)
        self.reject(f"not {self.argument('e', comparison.evaluate)}({left}, {right})")
        describe.append(f"compare {comparison.op}")

    def negation(self, atom: Atom, position: int, describe: list[str]) -> None:
        self.prologue.append(f"n{position} = database.rows({self.argument('p', atom.predicate)})")
        values = [self.value(term) for term in atom.terms]
        self.reject(f"{_display(values)} in n{position}")
        describe.append(f"negation {atom.predicate}")

    def source(self, head: str, sources: Sequence[int]) -> str:
        """The factory ``make(...)`` returning the ``(heads, firings)`` pair."""
        firing = _display([head, *(f"r{position}" for position in sources)])
        body = "".join(
            f"        {line}\n"
            for line in (*self.prologue, "found = []", "append = found.append", *self.body)
        )
        emit = f"        {'    ' * self.depth}append("
        return (
            f"def make({', '.join(self.parameters)}):\n"
            f"    def heads(database, delta):\n{body}{emit}{head})\n        return found\n\n"
            f"    def firings(database, delta):\n{body}{emit}{firing})\n        return found\n\n"
            "    return heads, firings\n"
        )


_FACTORIES: dict[str, Callable] = {}
_FACTORY_LIMIT = 4096


def _factory(source: str) -> Callable:
    """The compiled ``make`` of a kernel source, shared by every plan of its
    shape."""
    make = _FACTORIES.get(source)
    if make is None:
        namespace = dict(_KERNEL_GLOBALS)
        exec(compile(source, "<kernel>", "exec"), namespace)
        make = namespace["make"]
        if len(_FACTORIES) >= _FACTORY_LIMIT:
            _FACTORIES.pop(next(iter(_FACTORIES)))
        _FACTORIES[source] = make
    return make


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

        best = max(positives, key=score) if len(positives) > 1 else positives[0]
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
    :attr:`source` is the generated kernel both come from.
    """

    __slots__ = ("heads", "firings", "probes", "description", "_source")

    def __init__(self, heads, firings, probes, description, source: str) -> None:
        self.heads = heads
        self.firings = firings
        self.probes = probes
        self.description = description
        self._source = source

    @property
    def source(self) -> str:
        """The kernel's Python source, shared by every plan of the same shape
        (it names no predicate, constant or skolem function)."""
        return self._source


def _copies(rule: Rule, positives: Sequence[int]) -> tuple[int, ...]:
    """The positive body positions whose terms are the head's, when those
    are distinct plain variables (an identity copy of that atom)."""
    terms = rule.head.terms
    if len(set(terms)) != len(terms) or not all(isinstance(term, Variable) for term in terms):
        return ()
    return tuple(position for position in positives if rule.body[position].terms == terms)


def _identity_position(ordered, copies: tuple[int, ...]) -> Optional[int]:
    """The body position whose matched row *is* the head in this plan, if any.

    That is the first positive atom in plan order, among ``copies``, with
    none of its variables bound before it: every column binds its variable,
    so the tuple display of the head would rebuild the row with the same
    values.
    """
    bound: set[Variable] = set()
    for position, literal, _ in ordered:
        if isinstance(literal, Atom) and not literal.negated:
            if position in copies and bound.isdisjoint(literal.terms):
                return position
            bound |= literal.variables()
    return None


class CompiledRule:
    """A rule compiled once: a plain plan plus one delta plan per positive atom.

    ``label`` names the rule in provenance and ``signature`` is
    ``(head predicate, *positive body predicates)``, the relations of each
    firing a plan's ``firings`` lists.
    """

    __slots__ = ("rule", "label", "signature", "positive_positions", "_plans")

    def __init__(self, rule: Rule) -> None:
        rule.validate()
        self.rule = rule
        self.label = rule.label or f"rule:{rule.head.predicate}"
        self.positive_positions = tuple(
            position
            for position, literal in enumerate(rule.body)
            if isinstance(literal, Atom) and not literal.negated
        )
        self.signature = (
            rule.head.predicate,
            *(rule.body[position].predicate for position in self.positive_positions),
        )
        # How often each variable occurs, without and with the head (a head
        # that is the matched row itself reads no variable).
        uses: dict[Variable, int] = {}
        for literal in rule.body:
            _occurrences(
                literal.terms if isinstance(literal, Atom) else (literal.left, literal.right),
                uses,
            )
        head_uses = dict(uses)
        _occurrences(rule.head.terms, head_uses)
        copies = _copies(rule, self.positive_positions)
        self._plans: dict[Optional[int], RulePlan] = {}
        for position in (None, *self.positive_positions):
            self._plans[position] = self._build_plan(position, copies, uses, head_uses)

    def _build_plan(
        self,
        delta_position: Optional[int],
        copies: tuple[int, ...],
        uses: dict[Variable, int],
        head_uses: dict[Variable, int],
    ) -> RulePlan:
        """The kernel for one delta position (``None``: the plain plan).

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
        identity = _identity_position(ordered, copies) if copies else None
        writer = _KernelWriter(head_uses if identity is None else uses)
        probes: set[tuple[str, int]] = set()
        description: list[str] = []
        for position, literal, use_delta in ordered:
            if isinstance(literal, Comparison):
                writer.comparison(literal, description)
            elif literal.negated:
                writer.negation(literal, position, description)
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
                probe = writer.atom(literal, position, mode, description)
                if probe is not None:
                    probes.add(probe)
        if identity is not None:
            head = f"r{identity}"
        else:
            head = _display([writer.value(term) for term in rule.head.terms])
        source = writer.source(head, self.positive_positions)
        heads, firings = _factory(source)(*writer.arguments)
        return RulePlan(heads, firings, frozenset(probes), tuple(description), source)

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
    _FACTORIES.clear()
