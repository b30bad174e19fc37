"""Skolem functions for existential variables in schema mappings.

A GLAV schema mapping such as::

    OPS(org, prot, seq)  ->  exists oid, pid .
        O(org, oid), P(prot, pid), S(oid, pid, seq)

cannot be evaluated directly as datalog because ``oid`` and ``pid`` do not
appear in the body.  ORCHESTRA (following data exchange practice) replaces
each existential variable with a *skolem term* — a function of the
universally quantified variables it depends on — producing labelled nulls in
the target instance.  :class:`SkolemFactory` creates fresh, deterministic
skolem function names per (mapping, existential variable) pair so that the
same source tuple always produces the same labelled null.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .ast import Atom, SkolemTerm, Term, Variable


@dataclass
class SkolemFactory:
    """Creates deterministic skolem function names and terms.

    Attributes:
        prefix: Prefix of every generated function name; configurable through
            :class:`repro.config.ExchangeConfig`.
    """

    prefix: str = "SK"
    _issued: dict[tuple[str, str], str] = field(default_factory=dict)

    def function_name(self, mapping_id: str, variable: str) -> str:
        """Return the skolem function name for an existential variable."""
        key = (mapping_id, variable)
        if key not in self._issued:
            self._issued[key] = f"{self.prefix}_{mapping_id}_{variable}"
        return self._issued[key]

    def term(
        self, mapping_id: str, variable: str, arguments: Sequence[Term]
    ) -> SkolemTerm:
        """Build a skolem term for ``variable`` applied to ``arguments``."""
        return SkolemTerm(self.function_name(mapping_id, variable), tuple(arguments))

    def issued_functions(self) -> set[str]:
        """Names of every skolem function created so far."""
        return set(self._issued.values())


def skolemize_head(
    head_atoms: Iterable[Atom],
    body_variables: set[Variable],
    mapping_id: str,
    factory: SkolemFactory,
    argument_order: Sequence[Variable] | None = None,
) -> list[Atom]:
    """Replace existential head variables with skolem terms.

    Args:
        head_atoms: The head atoms of a mapping (conjunctive).
        body_variables: Variables bound by the mapping body (universals).
        mapping_id: Identifier of the mapping, used in function names.
        factory: The skolem factory to draw function names from.
        argument_order: Which universal variables the skolem functions depend
            on, in order.  Defaults to the sorted list of body variables that
            actually appear in the head atoms, which keeps labelled nulls
            stable across runs.

    Returns:
        The head atoms with every existential variable replaced by a skolem
        term over the chosen argument variables.
    """
    head_atoms = list(head_atoms)
    head_variables: set[Variable] = set()
    for atom in head_atoms:
        head_variables.update(atom.variables())
    existentials = head_variables - body_variables
    if not existentials:
        return head_atoms

    if argument_order is None:
        shared = sorted(
            (head_variables & body_variables), key=lambda variable: variable.name
        )
        argument_order = shared

    replacements: dict[Variable, SkolemTerm] = {
        variable: factory.term(mapping_id, variable.name, tuple(argument_order))
        for variable in existentials
    }

    def rewrite_term(term: Term) -> Term:
        if isinstance(term, Variable) and term in replacements:
            return replacements[term]
        if isinstance(term, SkolemTerm):
            return SkolemTerm(
                term.function,
                tuple(
                    rewrite_term(argument)
                    if isinstance(argument, (Variable, SkolemTerm))
                    else argument
                    for argument in term.arguments
                ),
            )
        return term

    rewritten: list[Atom] = []
    for atom in head_atoms:
        rewritten.append(
            Atom(
                atom.predicate,
                tuple(rewrite_term(term) for term in atom.terms),
                negated=atom.negated,
            )
        )
    return rewritten


def is_labelled_null(value: object) -> bool:
    """True when ``value`` is a labelled null (a ground skolem term)."""
    return isinstance(value, SkolemTerm) and value.is_ground
