"""Tuple-at-a-time term matching: the reference matcher of the plan tests.

Before rules were compiled into join plans (:mod:`repro.datalog.plan`), the
evaluators matched every candidate tuple through a fresh
:class:`Substitution`.  That path is kept only as the oracle of
``test_plan_executor.py``'s interpreted fixpoint, which the compiled
executor must agree with.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.datalog.ast import Atom, Constant, SkolemTerm, Term, Variable

_UNBOUND = object()


class Substitution:
    """An immutable-by-convention mapping from variables to ground values."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Optional[Mapping[Variable, object]] = None) -> None:
        self._bindings: dict[Variable, object] = dict(bindings or {})

    def bind(self, variable: Variable, value: object) -> Optional["Substitution"]:
        """Return a new substitution with ``variable`` bound to ``value``.

        Returns ``None`` when the variable is already bound to a different
        value (a failed match).
        """
        existing = self._bindings.get(variable, _UNBOUND)
        if existing is not _UNBOUND:
            return self if existing == value else None
        extended = dict(self._bindings)
        extended[variable] = value
        return Substitution(extended)

    def apply_term(self, term: Term) -> object:
        """Instantiate ``term`` under this substitution.

        Variables without a binding are returned unchanged; ground skolem
        terms are built recursively so that they act as labelled nulls.
        """
        if isinstance(term, Constant):
            return term.value
        if isinstance(term, Variable):
            return self._bindings.get(term, term)
        if isinstance(term, SkolemTerm):
            return SkolemTerm(
                term.function,
                tuple(self._apply_argument(arg) for arg in term.arguments),
            )
        return term

    def _apply_argument(self, arg: object) -> object:
        if isinstance(arg, (Constant, Variable, SkolemTerm)):
            return self.apply_term(arg)
        return arg

    def ground_values(self, atom: Atom) -> tuple:
        """Return the tuple of ground values for ``atom`` under this substitution.

        Raises :class:`ValueError` if any variable remains unbound.
        """
        values = []
        for term in atom.terms:
            value = self.apply_term(term)
            if isinstance(value, Variable):
                raise ValueError(f"variable {value.name} of {atom!r} is unbound")
            values.append(value)
        return tuple(values)


def match_term(term: Term, value: object, subst: Substitution) -> Optional[Substitution]:
    """Match a rule term against a ground value, extending ``subst``.

    Returns the extended substitution, or ``None`` when the match fails.
    """
    if isinstance(term, Constant):
        return subst if term.value == value else None
    if isinstance(term, Variable):
        return subst.bind(term, value)
    if isinstance(term, SkolemTerm):
        if not isinstance(value, SkolemTerm):
            return None
        if term.function != value.function:
            return None
        if len(term.arguments) != len(value.arguments):
            return None
        current: Optional[Substitution] = subst
        for sub_term, sub_value in zip(term.arguments, value.arguments):
            if current is None:
                return None
            if isinstance(sub_term, (Constant, Variable, SkolemTerm)):
                current = match_term(sub_term, sub_value, current)
            else:
                current = current if sub_term == sub_value else None
        return current
    return None


def match_atom(
    atom: Atom, values: tuple, subst: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Match a (positive) atom against a ground tuple of values."""
    if len(atom.terms) != len(values):
        return None
    current: Optional[Substitution] = subst if subst is not None else Substitution()
    for term, value in zip(atom.terms, values):
        current = match_term(term, value, current)
        if current is None:
            return None
    return current
