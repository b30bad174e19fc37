"""Abstract syntax for the datalog rule language.

The language is positive datalog extended with:

* stratified negation (``not R(x, y)`` in rule bodies),
* built-in comparison atoms (``x < y``, ``x != y`` and friends), and
* skolem terms (``SK_f(x, y)``) in rule heads, used by the update-exchange
  engine to represent existential variables of schema mappings as labelled
  nulls.

Terms are :class:`Variable`, :class:`Constant` or :class:`SkolemTerm`.  Atoms
are predicates applied to terms; rules are a head atom plus a body of
(possibly negated) relational atoms and built-in comparisons.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Union

from ..errors import DatalogError, SourceSpan, UnsafeRuleError

#: Values that may appear inside facts: Python scalars plus labelled nulls
#: (represented by ground :class:`SkolemTerm` instances).
GroundValue = Union[str, int, float, bool, None, "SkolemTerm"]


@dataclass(frozen=True, order=True)
class Variable:
    """A datalog variable, written as a bare identifier (``X``, ``org``)."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"?{self.name}"


@dataclass(frozen=True)
class Constant:
    """A literal constant appearing in a rule or fact."""

    value: GroundValue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class SkolemTerm:
    """A skolem function application ``SK_f(t1, ..., tn)``.

    In rules the arguments may contain variables; in facts they are ground
    values, in which case the term acts as a *labelled null*: two labelled
    nulls are equal exactly when they were produced by the same skolem
    function applied to the same arguments.

    Labelled nulls are hashed every time a tuple holding one is interned or
    probed, so the hash is computed once, in the constructor.  Every term
    must therefore be built through the constructor: pickling and copying
    go through :meth:`__reduce__`, which rebuilds the term (and its hash, in
    the unpickling process's hash seed) from its fields.
    """

    function: str
    arguments: tuple = ()
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        arguments = tuple(self.arguments)
        object.__setattr__(self, "arguments", arguments)
        object.__setattr__(self, "_hash", hash((self.function, arguments)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (SkolemTerm, (self.function, self.arguments))

    @property
    def is_ground(self) -> bool:
        """True when no argument is (or contains) a variable."""
        return all(not _contains_variable(arg) for arg in self.arguments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        args = ", ".join(repr(a) for a in self.arguments)
        return f"{self.function}({args})"


#: A term is anything that can appear as an argument of an atom in a rule.
Term = Union[Variable, Constant, SkolemTerm]


def _contains_variable(value: object) -> bool:
    if isinstance(value, Variable):
        return True
    if isinstance(value, SkolemTerm):
        return any(_contains_variable(arg) for arg in value.arguments)
    return False


def term_variables(term: Term) -> Iterator[Variable]:
    """Yield every variable occurring in ``term`` (recursing into skolems)."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, SkolemTerm):
        for arg in term.arguments:
            if isinstance(arg, (Variable, Constant, SkolemTerm)):
                yield from term_variables(arg)


@dataclass(frozen=True)
class Atom:
    """A relational atom ``predicate(t1, ..., tn)``, possibly negated.

    ``span`` records where the atom appeared in source text when it was
    produced by the parser; it is excluded from equality/hashing so that
    structurally identical atoms from different locations still compare
    equal (plan caches rely on structural identity).
    """

    predicate: str
    terms: tuple
    negated: bool = False
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> set[Variable]:
        """All variables occurring anywhere in the atom."""
        found: set[Variable] = set()
        for term in self.terms:
            found.update(term_variables(term))
        return found

    def is_ground(self) -> bool:
        """True when the atom contains no variables."""
        return not self.variables()

    def negate(self) -> "Atom":
        """Return a copy of this atom with the negation flag flipped."""
        return Atom(self.predicate, self.terms, negated=not self.negated, span=self.span)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(repr(t) for t in self.terms)
        prefix = "not " if self.negated else ""
        return f"{prefix}{self.predicate}({inner})"


_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Comparison:
    """A built-in comparison atom such as ``X != Y`` or ``X < 10``.

    Comparisons never bind variables; every variable they mention must be
    bound by a positive relational atom earlier in the rule body (rule
    safety, checked by :meth:`Rule.validate`).
    """

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise DatalogError(f"unsupported comparison operator: {self.op!r}")

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        found.update(term_variables(self.left))
        found.update(term_variables(self.right))
        return found

    def evaluate(self, left_value: object, right_value: object) -> bool:
        """Apply the comparison to two ground values."""
        try:
            return _COMPARATORS[self.op](left_value, right_value)
        except TypeError:
            # Mixed-type comparisons (e.g. str < int) are treated as false
            # rather than crashing rule evaluation.
            return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.left!r} {self.op} {self.right!r}"


@dataclass(frozen=True)
class Rule:
    """A datalog rule ``head :- body``.

    Attributes:
        head: The single head atom (never negated).
        body: Relational atoms and comparisons, evaluated as a conjunction.
        label: An optional identifier.  The update-exchange engine labels each
            rule with the schema mapping it was compiled from, which is how
            provenance records which mapping produced a derived tuple.
    """

    head: Atom
    body: tuple = ()
    label: str | None = None
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if self.head.negated:
            raise DatalogError("rule heads may not be negated")

    @property
    def positive_body(self) -> tuple[Atom, ...]:
        return tuple(
            literal
            for literal in self.body
            if isinstance(literal, Atom) and not literal.negated
        )

    @property
    def negative_body(self) -> tuple[Atom, ...]:
        return tuple(
            literal
            for literal in self.body
            if isinstance(literal, Atom) and literal.negated
        )

    @property
    def comparisons(self) -> tuple[Comparison, ...]:
        return tuple(
            literal for literal in self.body if isinstance(literal, Comparison)
        )

    @property
    def is_fact(self) -> bool:
        """A rule with an empty body and a ground head is a fact."""
        return not self.body and self.head.is_ground()

    def body_predicates(self) -> set[str]:
        return {
            literal.predicate for literal in self.body if isinstance(literal, Atom)
        }

    def validate(self) -> None:
        """Check rule safety.

        Every variable appearing in the head, in a negated atom, or in a
        comparison must also appear in a positive relational body atom.
        Skolem terms in the head are allowed as long as their argument
        variables are safe.
        """
        bound: set[Variable] = set()
        for atom in self.positive_body:
            bound.update(atom.variables())

        def check(vars_needed: Iterable[Variable], where: str) -> None:
            missing = {v for v in vars_needed if v not in bound}
            if missing:
                names = ", ".join(sorted(v.name for v in missing))
                raise UnsafeRuleError(
                    f"unsafe rule {self!r}: variable(s) {names} in {where} are "
                    "not bound by a positive body atom",
                    span=self.span,
                )

        check(self.head.variables(), "the head")
        for atom in self.negative_body:
            check(atom.variables(), f"negated atom {atom!r}")
        for comparison in self.comparisons:
            check(comparison.variables(), f"comparison {comparison!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.body:
            return f"{self.head!r}."
        body = ", ".join(repr(b) for b in self.body)
        return f"{self.head!r} :- {body}."


@dataclass(frozen=True)
class Fact:
    """A ground fact: a predicate name plus a tuple of ground values."""

    predicate: str
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def arity(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.predicate}({inner})"


@dataclass
class Program:
    """A collection of rules evaluated together.

    The program distinguishes *intensional* predicates (appearing in some rule
    head) from *extensional* predicates (base data only); this drives
    stratification and semi-naive evaluation.
    """

    rules: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rules = list(self.rules)

    def add(self, rule: Rule) -> None:
        rule.validate()
        self.rules.append(rule)

    def extend(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self.add(rule)

    @property
    def idb_predicates(self) -> set[str]:
        """Predicates defined by at least one rule head."""
        return {rule.head.predicate for rule in self.rules}

    @property
    def edb_predicates(self) -> set[str]:
        """Predicates that appear only in rule bodies."""
        used: set[str] = set()
        for rule in self.rules:
            used.update(rule.body_predicates())
        return used - self.idb_predicates

    def rules_for(self, predicate: str) -> list[Rule]:
        """All rules whose head predicate is ``predicate``."""
        return [rule for rule in self.rules if rule.head.predicate == predicate]

    def validate(self) -> None:
        for rule in self.rules:
            rule.validate()

    def dependency_edges(self) -> Iterator[tuple[str, str, bool]]:
        """Yield ``(head, body, negated)`` dependency edges between predicates."""
        for rule in self.rules:
            for literal in rule.body:
                if isinstance(literal, Atom):
                    yield rule.head.predicate, literal.predicate, literal.negated

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "\n".join(repr(rule) for rule in self.rules)
