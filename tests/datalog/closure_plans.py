"""Closure plans: the order oracle of the generated rule kernels.

Before plans were generated as Python source (:mod:`repro.datalog.plan`),
each plan was a chain of continuation closures over a flat environment of
variable slots: one step per literal in the order ``_order_literals``
gives, a match function per positive atom, a getter closure per term.
That builder lives on here, trimmed to what the oracle needs, so the
kernels can be held to it: for every rule and delta position, a kernel's
``heads`` and ``firings`` must list what the closure plan lists, in the
same order.
"""

from __future__ import annotations

from typing import Optional

from repro.datalog.ast import Atom, Comparison, Constant, Rule, SkolemTerm, Variable
from repro.datalog.plan import _order_literals, _term_is_ground

UNBOUND = object()


def _value_getter(term, slots: dict[Variable, int]):
    """``env -> ground value`` for a term whose variables are all bound."""
    if isinstance(term, Constant):
        value = term.value
        return lambda env: value
    if isinstance(term, Variable):
        slot = slots[term]
        return lambda env: env[slot]
    if isinstance(term, SkolemTerm):
        getters = tuple(
            _value_getter(argument, slots)
            if isinstance(argument, (Constant, Variable, SkolemTerm))
            else (lambda raw: (lambda env: raw))(argument)
            for argument in term.arguments
        )
        function = term.function
        return lambda env: SkolemTerm(function, tuple(g(env) for g in getters))
    raise TypeError(f"cannot compile term {term!r}")


def _match_ops(terms, slots, bound: set[Variable], fresh: list[int], skip=None) -> tuple:
    """``(kind, index, payload)`` ops matching a value sequence against
    ``terms`` in index order, binding still-free variables."""
    ops = []
    for index, term in enumerate(terms):
        if index == skip:
            continue
        if isinstance(term, Variable):
            if term in bound:
                ops.append(("check", index, slots[term]))
            else:
                bound.add(term)
                fresh.append(slots[term])
                ops.append(("bind", index, slots[term]))
        elif isinstance(term, SkolemTerm):
            inner = _match_ops(term.arguments, slots, bound, fresh)
            ops.append(("skolem", index, (term.function, len(term.arguments), inner)))
        else:
            ops.append(("const", index, term.value if isinstance(term, Constant) else term))
    return tuple(ops)


def _run_ops(ops, values, env) -> bool:
    for kind, index, payload in ops:
        value = values[index]
        if kind == "const":
            if payload != value:
                return False
        elif kind == "check":
            if env[payload] != value:
                return False
        elif kind == "bind":
            env[payload] = value
        else:
            function, arity, inner = payload
            if (
                not isinstance(value, SkolemTerm)
                or value.function != function
                or len(value.arguments) != arity
                or not _run_ops(inner, value.arguments, env)
            ):
                return False
    return True


def _atom_step(atom: Atom, slots, bound: set[Variable], reg: int, mode: str):
    predicate = atom.predicate
    probe = None
    getter = None
    if mode != "delta":
        for position, term in enumerate(atom.terms):
            if _term_is_ground(term, bound):
                probe, getter = position, _value_getter(term, slots)
                break
    fresh: list[int] = []
    ops = _match_ops(atom.terms, slots, bound, fresh, skip=probe)
    arity = len(atom.terms)

    def link(next_step):
        def step(database, delta, env, regs, emit):
            if mode == "delta":
                rows = delta.get(predicate, ())
            elif probe is not None:
                rows = database.column_index(predicate, probe).get(getter(env), ())
            else:
                rows = database.rows(predicate)
            skip = delta.get(predicate) if mode == "old" else None
            for row in rows:
                if skip and row in skip:
                    continue
                if len(row) == arity and _run_ops(ops, row, env):
                    regs[reg] = row
                    next_step(database, delta, env, regs, emit)
                for slot in fresh:
                    env[slot] = UNBOUND

        return step

    return link


def _guard_step(literal, slots):
    if isinstance(literal, Comparison):
        left, right = _value_getter(literal.left, slots), _value_getter(literal.right, slots)

        def holds(database, env):
            return literal.evaluate(left(env), right(env))

    else:
        getters = tuple(_value_getter(term, slots) for term in literal.terms)

        def holds(database, env):
            return not database.contains(literal.predicate, tuple(g(env) for g in getters))

    def link(next_step):
        def step(database, delta, env, regs, emit):
            if holds(database, env):
                next_step(database, delta, env, regs, emit)

        return step

    return link


def closure_plan(rule: Rule, delta_position: Optional[int]):
    """``(heads, firings)`` of ``rule``'s closure plan for ``delta_position``
    (``None``: the plain plan), with the kernels' signatures."""
    variables: set[Variable] = set(rule.head.variables())
    for literal in rule.body:
        variables |= literal.variables()
    slots = {variable: index for index, variable in enumerate(sorted(variables))}
    positives = tuple(
        position
        for position, literal in enumerate(rule.body)
        if isinstance(literal, Atom) and not literal.negated
    )
    recursive = rule.head.predicate in {rule.body[position].predicate for position in positives}
    bound: set[Variable] = set()
    links = []
    for position, literal, use_delta in _order_literals(rule, delta_position):
        if isinstance(literal, Comparison) or literal.negated:
            links.append(_guard_step(literal, slots))
            continue
        if use_delta:
            mode = "delta"
        elif delta_position is not None and position < delta_position and not recursive:
            mode = "old"
        else:
            mode = "full"
        links.append(_atom_step(literal, slots, bound, position, mode))

    def terminal(database, delta, env, regs, emit):
        emit(env, regs)

    run = terminal
    for link in reversed(links):
        run = link(run)
    getters = tuple(_value_getter(term, slots) for term in rule.head.terms)

    def collect(database, delta, firing: bool) -> list:
        found: list = []

        def emit(env, regs):
            head = tuple(getter(env) for getter in getters)
            found.append((head, *(regs[position] for position in positives)) if firing else head)

        run(database, delta, [UNBOUND] * len(slots), [None] * len(rule.body), emit)
        return found

    def heads(database, delta):
        return collect(database, delta, False)

    def firings(database, delta):
        return collect(database, delta, True)

    return heads, firings
