"""The update-exchange provenance graph.

During update exchange ORCHESTRA does not materialise provenance polynomials
for every derived tuple; it maintains a *provenance graph* whose nodes are
tuples and whose hyper-edges are mapping-rule firings connecting the source
tuples of a firing to the tuple it derives.  The graph is the provenance:
every question is answered by evaluating it in a semiring on its adjacency,
and nothing compiled from it outlives the call that asked.

Storage is on dense integer tuple ids: ``(relation, values)`` is interned
once through ``relation → values → id``; a tuple's relation, values, base
variable and adjacency entries sit in id-indexed lists, and explicit dirty
entries and the unsupported set are keyed by id.  A
derivation is one flat record ``(mapping_id, target_id, *source_ids)``, kept
in an insertion-ordered list; only the records that carry a rule variable
are keyed in a map.  A firing can repeat a record only when its target
already has records, so the duplicate check looks in the target's adjacency
entry (or, for a hub target, in its first source's, when that is shorter).
Recording is batched: the executors hand
:meth:`ProvenanceGraph.add_derivations` every firing of one rule application
at once, the relations' interning dicts are looked up once per batch, and a
firing hashes each participating row once.

Nothing is allocated per tuple beyond its slots in the id-indexed lists: a
base tuple named by default holds a shared marker, and its name
``relation(v1,…)`` is rendered when read.  A tuple's adjacency entry is the
shared ``()`` until it has records, the one record itself (a record is told
from a tuple of records by its first field, the mapping id string), a tuple
of up to eight records, and a list beyond, so the graph's many small
entries are tuples the garbage collector can stop tracking, and most are no
container at all.  Tuples created since the last flush are dirty by their
id range, not by an entry each: only changes to older tuples are written
down.  :class:`TupleNode` and :class:`DerivationNode` are values the
inspection methods build on demand; none is stored.  The graph supports:

* evaluating a tuple's annotation in any commutative semiring under an
  assignment of its variables, directly on the adjacency by one iterative
  walk whose memo lives for one call — cycles in the derivation graph (e.g.
  the Figure-2 network maps Σ1 → Σ2 → Σ1) are cut so every tuple's
  annotation is the sum over its *acyclic* derivations, matching the
  expanded-polynomial semantics exactly, for non-idempotent semirings too;
  the provenance polynomial itself is that evaluation in ``N[X]``
  (budget-bounded), and
* deletion propagation: after removing base tuples, finding which derived
  tuples have lost all support.  A change touches only its *downstream
  cone* — the tuples that transitively depend on the changed ones — and
  support (the Boolean image of provenance) is re-derived for them on the
  adjacency and kept as the unsupported set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Iterable, Mapping, Optional, Sequence

from ..errors import ProvenanceError
from .polynomial import Polynomial
from .semiring import BooleanSemiring, PolynomialSemiring

#: A tuple node is identified by its relation name and its ground values.
TupleKey = tuple[str, tuple]

_UNREACHED = float("inf")

#: Index of the first source id in a record ``(mapping_id, target_id, *source_ids)``.
_FIRST_SOURCE = 2

#: Adjacency entries stay tuples up to this many records, then become lists.
_TUPLE_ADJACENCY = 8

#: The variable slot of a base tuple named by default (see :func:`default_variable_namer`).
_NAMED_BY_DEFAULT = object()

#: The evaluator's value for a tuple with no acyclic derivation at all (a
#: semiring value may be anything, ``None`` included, so none can mark it).
_ABSENT = object()
#: The product of a derivation before its first factor is folded in.
_UNIT = object()


def default_variable_namer(relation: str, values: tuple) -> str:
    """Default provenance-variable naming scheme for base tuples."""
    rendered = ",".join(str(value) for value in values)
    return f"{relation}({rendered})"


def _records(entry) -> Sequence[tuple]:
    """The records of one adjacency entry (see :func:`_adjoin`).

    The one normalization every reader applies; the component and compile
    loops inline the same test.
    """
    return (entry,) if entry and entry[0].__class__ is str else entry


def _adjoin(adjacency: list, tuple_id: int, record: tuple) -> None:
    """Append ``record`` to one tuple's adjacency entry.

    Most tuples have one derivation and one user, so an entry starts as the
    shared ``()``, is the bare record while it is the only one (no wrapper
    container at all), then grows as a tuple of records (which the garbage
    collector can untrack, unlike a list).  A bare record and a tuple of
    records differ in their first field: the mapping id string, or a record.
    Past ``_TUPLE_ADJACENCY`` records the entry turns into a list once and is
    appended to in place, so a hub tuple with many users still builds in
    linear time.
    """
    records = adjacency[tuple_id]
    if records.__class__ is list:
        records.append(record)
    elif not records:
        adjacency[tuple_id] = record
    elif records[0].__class__ is str:
        adjacency[tuple_id] = (records, record)
    elif len(records) < _TUPLE_ADJACENCY:
        adjacency[tuple_id] = records + (record,)
    else:
        adjacency[tuple_id] = [*records, record]


class _Frame:
    """One in-progress tuple of the iterative evaluator."""

    __slots__ = ("key", "depth", "scc_id", "total", "derivations", "d_index", "s_index",
                 "product", "low")

    def __init__(self, key, depth, scc_id, total, derivations) -> None:
        self.key = key
        self.depth = depth
        self.scc_id = scc_id
        #: The sum of the alternatives closed so far (``_ABSENT`` for none).
        self.total = total
        self.derivations = derivations
        self.d_index = 0
        self.s_index = _FIRST_SOURCE
        #: The product of the current derivation's sources matched so far.
        self.product = _UNIT
        self.low = _UNREACHED

    def next_derivation(self) -> None:
        self.d_index += 1
        self.s_index = _FIRST_SOURCE
        self.product = _UNIT


class _BudgetedPolynomials(PolynomialSemiring):
    """``N[X]`` whose folds raise before building more than ``max_monomials``
    monomials (checked against the worst-case size of the result, so a
    combinatorial product raises instead of materialising first; ``None``
    lifts the bound)."""

    def __init__(self, max_monomials: Optional[int]) -> None:
        self._max_monomials = max_monomials

    def check(self, monomials: int) -> None:
        if self._max_monomials is not None and monomials > self._max_monomials:
            raise ProvenanceError(
                f"polynomial expansion exceeded the budget of {self._max_monomials} "
                f"monomials (needed up to {monomials}); evaluate the provenance in a "
                "semiring directly or raise max_monomials"
            )

    def plus(self, left: Polynomial, right: Polynomial) -> Polynomial:
        self.check(left.monomial_count() + right.monomial_count())
        return left + right

    def times(self, left: Polynomial, right: Polynomial) -> Polynomial:
        self.check(left.monomial_count() * right.monomial_count())
        return left * right


@dataclass(frozen=True)
class TupleNode:
    """A node of the provenance graph: one tuple of one relation."""

    relation: str
    values: tuple
    is_base: bool
    variable: Optional[str] = None

    @property
    def key(self) -> TupleKey:
        return (self.relation, self.values)


@dataclass(frozen=True)
class DerivationNode:
    """One firing of a mapping rule: sources jointly derive the target tuple."""

    mapping_id: str
    target: TupleKey
    sources: tuple[TupleKey, ...]
    rule_variable: Optional[str] = None

    @property
    def key(self) -> tuple:
        return (self.mapping_id, self.target, self.sources)


def _lookup(semiring, assignment: Optional[Mapping[str, object]], default) -> Callable:
    """A variable's value under ``assignment``: ``default`` when missing, or
    the semiring's one if ``default`` is ``None``."""
    get = (assignment or {}).get
    default = semiring.one() if default is None else default
    return lambda name: get(name, default)


def _trust_rule(name: str) -> bool:
    """Trust questions count every mapping-rule variable as trusted."""
    return True


class ProvenanceGraph:
    """A mutable provenance graph for one peer's (or the whole system's) data.

    Args:
        annotate_mappings: Give each mapping rule its own provenance variable
            (``m:<mapping_id>``) so trust policies can discount mapping hops.
    """

    #: Installed (as an instance attribute) by IncrementalEngine when the
    #: owning system carries an Observability holder; annotation queries
    #: then emit ``provenance.evaluate`` spans and count evaluations.
    observability = None

    def __init__(self, annotate_mappings: bool = False) -> None:
        #: The interning table ``relation → values → tuple id``; ids are dense
        #: and never reused, and all other state is indexed or keyed by them.
        self._ids: dict[str, dict[tuple, int]] = {}
        #: The number of tuples (``len`` of the id-indexed lists), so a flush
        #: can tell whether any tuple is new without a call.
        self._tuple_count = 0
        self._relations: list[str] = []
        self._values: list[tuple] = []
        #: A base tuple's variable, ``_NAMED_BY_DEFAULT`` for a default name
        #: (rendered when read), None for a derived-only tuple.
        self._variables: list = []
        #: The records ``(mapping_id, target_id, *source_ids)`` in the order
        #: first recorded, and the rule variable of those that carry one.
        self._derivations: list[tuple] = []
        self._rule_variable_of: dict[tuple, str] = {}
        #: Per tuple, the records deriving it and the records using it as a
        #: source (once each, however often a body repeats it): ``()``, one
        #: bare record, a tuple of up to ``_TUPLE_ADJACENCY`` records, a list
        #: beyond (see :func:`_adjoin`; read through :func:`_records`).
        self._by_target: list = []
        self._by_source: list = []
        self._annotate_mappings = annotate_mappings
        #: Tuples changed since the last flush.  ``True`` marks a change that
        #: can take support away (a demoted base tuple) or a tuple never
        #: checked (a new derived tuple): everything downstream is rechecked.
        #: ``False`` marks added support (a new base tuple, a promotion, a
        #: new derivation), which can only revive tuples that are
        #: unsupported now.  Every tuple id at or above ``_flushed`` (the
        #: tuple count at the last flush) is new and dirty without an entry,
        #: flagged as created: derived ``True``, base ``False``.  ``_dirty``
        #: holds the explicit entries: changes to older tuples, and a new
        #: tuple's demotion or promotion (both ``True``).
        self._flushed = 0
        self._dirty: dict[int, bool] = {}
        #: For each older tuple in ``_dirty``, in entry order, the tuple count
        #: when it entered: where it sits among the new tuples, so a flush
        #: visits the changes in the order they happened.
        self._dirty_at: list[int] = []
        #: The tuples not derivable from any base tuple, as of the last flush
        #: (kept on the adjacency, see :meth:`_rederive`), each with the
        #: serial at which it entered (insertion order).
        self._unsupported: dict[int, int] = {}
        self._unsupported_serial = 0

    # -- construction -----------------------------------------------------
    def _new_tuple(self, by_values: dict, relation: str, values: tuple, variable) -> int:
        """Give a never-seen tuple the next id (``by_values``: its relation's interning dict)."""
        # The id comes from ``len``: its int is exact-size, 4 bytes smaller
        # on CPython 3.11 than the one ``+ 1`` builds, and every id is kept.
        tuple_id = by_values[values] = len(self._relations)
        self._tuple_count = tuple_id + 1
        self._relations.append(relation)
        self._values.append(values)
        self._variables.append(variable)
        self._by_target.append(())
        self._by_source.append(())
        return tuple_id

    def _mark_dirty(self, tuple_id: int, may_lose_support: bool) -> None:
        """Record an explicit change; ``True`` wins over ``False``."""
        dirty = self._dirty
        if tuple_id in dirty:
            if may_lose_support:
                dirty[tuple_id] = True
            return
        dirty[tuple_id] = may_lose_support
        if tuple_id < self._flushed:
            self._dirty_at.append(self._tuple_count)

    def _id_of(self, relation: str, values: tuple) -> Optional[int]:
        by_values = self._ids.get(relation)
        return None if by_values is None else by_values.get(tuple(values))

    def add_base_tuple(
        self, relation: str, values: tuple, variable: Optional[str] = None
    ) -> TupleNode:
        """Register a base (peer-inserted) tuple and give it a provenance
        variable (:func:`default_variable_namer`'s name when none is given)."""
        values = tuple(values)
        self.record_base(relation, values, variable)
        return self._tuple_node(self._ids[relation][values])

    def record_base(self, relation: str, values: tuple, variable: Optional[str] = None) -> None:
        """:meth:`add_base_tuple` without building the node (the engines' path)."""
        values = tuple(values)
        by_values = self._ids.setdefault(relation, {})
        tuple_id = by_values.get(values)
        if tuple_id is None or self._variables[tuple_id] is None:
            variable = variable or _NAMED_BY_DEFAULT
            if tuple_id is None:
                tuple_id = self._new_tuple(by_values, relation, values, variable)
            else:
                # A tuple previously known only as derived is now also asserted
                # as base data: promote it, keeping its derivations.  A new
                # one keeps the ``True`` it was created with: it was never
                # evaluated.
                self._variables[tuple_id] = variable
                self._mark_dirty(tuple_id, tuple_id >= self._flushed)

    def add_derived_tuple(self, relation: str, values: tuple) -> TupleNode:
        """Register a derived tuple (no variable of its own)."""
        values = tuple(values)
        by_values = self._ids.setdefault(relation, {})
        tuple_id = by_values.get(values)
        if tuple_id is None:
            tuple_id = self._new_tuple(by_values, relation, values, None)
        return self._tuple_node(tuple_id)

    def add_derivation(
        self,
        mapping_id: str,
        target: tuple[str, tuple],
        sources: Iterable[tuple[str, tuple]],
        rule_variable: Optional[str] = None,
    ) -> None:
        """Record that ``sources`` jointly derive ``target`` through ``mapping_id``
        (a firing already recorded changes nothing): a one-firing
        :meth:`add_derivations`."""
        pairs = (target, *sources)
        self.add_derivations(
            mapping_id,
            tuple(relation for relation, _ in pairs),
            [tuple(tuple(values) for _, values in pairs)],
            rule_variable,
        )

    def add_derivations(
        self,
        mapping_id: str,
        predicates: tuple[str, ...],
        firings: Iterable[tuple],
        rule_variable: Optional[str] = None,
    ) -> None:
        """Record a batch of firings of one rule (the executors' ``recorder``).

        ``predicates`` is ``(target relation, *source relations)`` and each
        firing is ``(target values, *source values)`` in the same order, all
        tuples; a firing already recorded changes nothing.  This is the only
        interning loop of the graph and the hot path of update exchange: the
        relations' interning dicts are looked up once per batch, and a firing
        costs one hash per participating row (and one for its record when it
        carries a rule variable).
        """
        if mapping_id.__class__ is not str:
            # The adjacency entries tell a bare record by its mapping id.
            raise ProvenanceError(f"a mapping id must be a str, not {mapping_id!r}")
        ids = self._ids
        columns = tuple((ids.setdefault(relation, {}), relation) for relation in predicates)
        # A copy rule's ``(head, row)`` firings take a path without the
        # per-column loop.
        copy_rule = len(columns) == 2
        if copy_rule:
            (targets, target_relation), (sources, source_relation) = columns
        if self._annotate_mappings and rule_variable is None:
            rule_variable = f"m:{mapping_id}"
        # A row never registered becomes a derived placeholder (until
        # asserted as base data), numbered in firing order, target first.
        new_tuple = self._new_tuple
        by_target = self._by_target
        by_source = self._by_source
        dirty = self._dirty
        flushed = self._flushed
        derivations = self._derivations
        rule_variable_of = self._rule_variable_of
        for firing in firings:
            if copy_rule:
                target, source = firing
                target_id = targets.get(target)
                if target_id is None:
                    target_id = new_tuple(targets, target_relation, target, None)
                source_id = sources.get(source)
                if source_id is None:
                    source_id = new_tuple(sources, source_relation, source, None)
                record = (mapping_id, target_id, source_id)
            else:
                fields = [mapping_id]
                for (by_values, relation), values in zip(columns, firing):
                    tuple_id = by_values.get(values)
                    if tuple_id is None:
                        tuple_id = new_tuple(by_values, relation, values, None)
                    fields.append(tuple_id)
                record = tuple(fields)
                target_id = record[1]
            entry = by_target[target_id]
            if entry:
                # A repeat is among the target's records.  A hub target's
                # list is long: look among the first source's users instead
                # when those are fewer.
                if entry.__class__ is list and len(record) > _FIRST_SOURCE:
                    users = by_source[record[_FIRST_SOURCE]]
                    if users.__class__ is not list:
                        entry = users
                if entry == record or (entry and entry[0].__class__ is not str and record in entry):
                    continue
                _adjoin(by_target, target_id, record)
            else:
                by_target[target_id] = record
            derivations.append(record)
            if rule_variable:
                rule_variable_of[record] = rule_variable
            for source_id in record[_FIRST_SOURCE:]:
                users = by_source[source_id]
                if not users:
                    by_source[source_id] = record
                # A body repeating a source finds this record on top (as the
                # bare entry, or last): index it once.
                elif users is not record and users[-1] is not record:
                    _adjoin(by_source, source_id, record)
            # A new target is dirty by its id; an older one gains support.
            if target_id < flushed and target_id not in dirty:
                self._mark_dirty(target_id, False)

    def remove_base_tuple(self, relation: str, values: tuple) -> bool:
        """Demote a base tuple to derived-only (it was deleted at its origin).

        The tuple node and its derivations stay in the graph; whether it is
        still derivable is decided by :meth:`unsupported_tuples` /
        :meth:`is_derivable`.
        Returns True when the tuple was a base tuple.
        """
        tuple_id = self._id_of(relation, values)
        if tuple_id is None or self._variables[tuple_id] is None:
            return False
        self._variables[tuple_id] = None
        self._mark_dirty(tuple_id, True)
        return True

    # -- inspection (nodes are views, built when asked for) ------------------
    def _key(self, tuple_id: int) -> TupleKey:
        return (self._relations[tuple_id], self._values[tuple_id])

    def _variable(self, tuple_id: int) -> Optional[str]:
        """A tuple's base variable (None for a derived-only tuple)."""
        variable = self._variables[tuple_id]
        if variable is _NAMED_BY_DEFAULT:
            return default_variable_namer(self._relations[tuple_id], self._values[tuple_id])
        return variable

    def _tuple_node(self, tuple_id: int) -> TupleNode:
        variable = self._variable(tuple_id)
        return TupleNode(*self._key(tuple_id), variable is not None, variable)

    def _derivation_node(self, record: tuple) -> DerivationNode:
        sources = tuple(self._key(source_id) for source_id in record[_FIRST_SOURCE:])
        return DerivationNode(
            record[0], self._key(record[1]), sources, self._rule_variable_of.get(record)
        )

    def _derivation_nodes(self, adjacency, relation, values) -> list[DerivationNode]:
        tuple_id = self._id_of(relation, values)
        records = () if tuple_id is None else _records(adjacency[tuple_id])
        return [self._derivation_node(record) for record in records]

    def node(self, relation: str, values: tuple) -> Optional[TupleNode]:
        tuple_id = self._id_of(relation, values)
        return None if tuple_id is None else self._tuple_node(tuple_id)

    def tuples(self) -> Iterable[TupleNode]:
        return [self._tuple_node(tuple_id) for tuple_id in range(len(self._relations))]

    def derivations(self) -> Iterable[DerivationNode]:
        return [self._derivation_node(record) for record in self._derivations]

    def derivations_of(self, relation: str, values: tuple) -> list[DerivationNode]:
        return self._derivation_nodes(self._by_target, relation, values)

    def derivations_from(self, relation: str, values: tuple) -> list[DerivationNode]:
        return self._derivation_nodes(self._by_source, relation, values)

    def base_variables(self) -> dict[str, TupleKey]:
        """Map each provenance variable to the base tuple it annotates."""
        return {
            self._variable(tuple_id): self._key(tuple_id)
            for tuple_id, variable in enumerate(self._variables)
            if variable is not None
        }

    def size(self) -> tuple[int, int]:
        """Return ``(tuple nodes, derivation nodes)``."""
        return (len(self._relations), len(self._derivations))

    # -- support ---------------------------------------------------------------
    def _flush_dirty(self) -> None:
        """Bring the unsupported set up to date with the changes.

        Walks the downstream cone of the changed tuples once: the members
        whose derivability can have changed are rechecked by
        :meth:`_rederive`, in the order the walk reached them.  Tuples
        outside the cone keep their status, so a flush costs what the change
        touches.
        """
        flushed, count = self._flushed, self._tuple_count
        if not self._dirty and flushed == count:
            return
        dirty, self._dirty = self._dirty, {}
        dirty_at, self._dirty_at = self._dirty_at, []
        self._flushed = count
        # The changed tuples in the order they changed: an older tuple's
        # entry goes among the new tuples by the tuple count when it entered.
        changed: list[int] = []
        fresh = flushed
        for key, at in zip([key for key in dirty if key < flushed], dirty_at):
            if fresh < at:
                changed += range(fresh, at)
                fresh = at
            changed += (key,)
        changed += range(fresh, count)
        # A new tuple without an entry has the flag it was created with; its
        # entry (a demotion or promotion) is ``True``.
        variables = self._variables
        lose = [key for key in changed if (dirty[key] if key in dirty else variables[key] is None)]
        gain = [
            key for key in changed if not (dirty[key] if key in dirty else variables[key] is None)
        ]
        by_source = self._by_source
        unsupported = self._unsupported
        seen: set[int] = set()
        recheck: list[int] = []
        # Cones that may have lost support first, so a tuple in both kinds of
        # cone is rechecked whether or not it is unsupported now.
        for may_lose_support, keys in ((True, lose), (False, gain)):
            queue = [key for key in keys if key not in seen]
            seen.update(queue)
            while queue:
                key = queue.pop()
                if may_lose_support or key in unsupported:
                    recheck.append(key)
                for record in _records(by_source[key]):
                    target = record[1]
                    if target not in seen:
                        seen.add(target)
                        queue.append(target)
        if not recheck:
            return
        dead = self._rederive(recheck, seen)
        for key in recheck:
            if key not in dead:
                unsupported.pop(key, None)
            elif key not in unsupported:
                self._unsupported_serial += 1
                unsupported[key] = self._unsupported_serial

    def _rederive(self, recheck: list[int], cone: set[int]) -> set[int]:
        """The members of ``recheck`` that no derivation supports: support is
        provenance in the Boolean semiring, the least fixpoint of "has a base
        variable, or a derivation whose sources are all supported".

        Every rechecked tuple starts unsupported and is re-derived from the
        outside in (DRed within the cone), so a cycle whose only support runs
        through itself stays dead; a tuple outside ``recheck`` keeps its
        status.  A derivation's count of its sources still dead is made when
        its first source is released, and releases its target at zero.
        """
        variables, by_target, by_source = self._variables, self._by_target, self._by_source
        unsupported = self._unsupported
        dead = set(recheck)  # not released yet: a tuple leaves when popped

        def blocking(record: tuple) -> int:
            # A self-join's repeated source counts once: it is released once.
            return len({
                source
                for source in record[_FIRST_SOURCE:]
                if source in dead or (source in unsupported and source not in cone)
            })

        released = [
            key for key in recheck
            if variables[key] is not None or not all(map(blocking, _records(by_target[key])))
        ]
        waiting: dict[tuple, int] = {}
        while released:
            key = released.pop()
            if key not in dead:
                continue
            dead.remove(key)
            for record in _records(by_source[key]):
                if record[1] in dead:
                    count = waiting.pop(record) - 1 if record in waiting else blocking(record)
                    if count:
                        waiting[record] = count
                    else:
                        released.append(record[1])
        return dead

    # -- semiring evaluation --------------------------------------------------
    def _components(self, start: int, sccs: dict[int, int]) -> None:
        """Give ``start`` and everything it depends on a component id in
        ``sccs`` (iterative Tarjan from ``start``).

        Two tuples share an id exactly when each (transitively) derives the
        other; the evaluator uses this to decide when a memoized value is
        safe to reuse mid-walk.  A tuple's component lies inside what it
        reaches, and tuples that already hold an id reach only tuples that
        hold one, so they count as finished and the walk covers just the part
        without ids.  A component's id is the id of the tuple at its root,
        so ids never collide.
        """
        if start in sccs:
            return
        by_target = self._by_target
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        on_stack: set[int] = set()
        component_stack: list[int] = []
        counter = 0

        def successors(node: int):
            records = by_target[node]
            if records and records[0].__class__ is str:
                records = (records,)
            return iter(
                [
                    source
                    for record in records
                    for source in record[_FIRST_SOURCE:]
                    if source not in sccs
                ]
            )

        index[start] = low[start] = counter
        counter += 1
        component_stack.append(start)
        on_stack.add(start)
        work: list[tuple[int, object]] = [(start, successors(start))]
        while work:
            node, iterator = work[-1]
            descended = False
            for succ in iterator:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    component_stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, successors(succ)))
                    descended = True
                    break
                if succ in on_stack and index[succ] < low[node]:
                    low[node] = index[succ]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                while True:
                    member = component_stack.pop()
                    on_stack.discard(member)
                    sccs[member] = node
                    if member == node:
                        break

    def _evaluator(
        self,
        semiring,
        variable_value: Callable[[str], object],
        rule_value: Callable[[str], object],
    ) -> Callable[[Optional[int]], object]:
        """A function giving a tuple's value in ``semiring``: its base
        variable's ``variable_value``, plus for each derivation the product
        of its sources' values and its rule variable's ``rule_value``.

        Explicit-frame depth-first walk (no Python recursion, so arbitrarily
        deep derivation chains evaluate without hitting the interpreter's
        recursion limit).  A tuple already on the current path contributes
        only its base variable (cycle cut), which yields the sum over all
        acyclic derivations — the finite part of the least fixpoint.  Each
        frame tracks ``low``, the smallest on-path depth its walk touched
        (Tarjan-style): a value is memoized only when it did not depend on
        any tuple *above* it on the current path, i.e. when it is
        path-independent.  A memoized value is only *reused* when no member
        of its strongly connected component sits on the current path — a
        value memoized for one entry point of a cycle sums over paths
        through the other members, which must stay cut while those members
        are being walked.  Folding assumes only the identity laws (a
        derivation with a source that has no acyclic derivation contributes
        nothing), so the value is the tuple's ``N[X]`` provenance evaluated
        in ``semiring``, for non-idempotent semirings too.  The memo and the
        component ids live as long as the returned function.
        """
        plus, times = semiring.plus, semiring.times
        variables = self._variables
        rule_variable_of = self._rule_variable_of
        by_target = self._by_target
        sccs: dict[int, int] = {}
        memo: dict[int, object] = {}
        on_path: dict[int, int] = {}
        path_sccs: dict[int, int] = {}
        frames: list[_Frame] = []

        def resolve(key: int, depth: int):
            """Immediate ``(value, low)`` when no descent is needed, else
            ``None`` after pushing a frame for the tuple."""
            if key in memo and sccs[key] not in path_sccs:
                return (memo[key], _UNREACHED)
            total = _ABSENT if variables[key] is None else variable_value(self._variable(key))
            path_depth = on_path.get(key)
            if path_depth is not None:
                return (total, path_depth)
            on_path[key] = depth
            scc_id = sccs[key]
            path_sccs[scc_id] = path_sccs.get(scc_id, 0) + 1
            records = by_target[key]
            if records and records[0].__class__ is str:
                records = (records,)
            frames.append(_Frame(key, depth, scc_id, total, records))
            return None

        def absorb(frame: _Frame, child, child_low: float) -> None:
            """Fold one source's ``(value, low)`` into the frame."""
            if child_low < frame.low:
                frame.low = child_low
            if child is _ABSENT:  # the whole derivation is dead
                frame.next_derivation()
            else:
                frame.product = child if frame.product is _UNIT else times(frame.product, child)
                frame.s_index += 1

        def value(start: Optional[int]):
            if start is None:  # not in the graph
                return semiring.zero()
            self._components(start, sccs)
            completed = resolve(start, 0)  # (value, low) of the frame that just finished
            while frames:
                frame = frames[-1]
                if completed is not None:
                    absorb(frame, *completed)
                derivations = frame.derivations
                while frame.d_index < len(derivations):
                    record = derivations[frame.d_index]
                    if frame.s_index < len(record):
                        completed = resolve(record[frame.s_index], frame.depth + 1)
                        if completed is None:
                            break
                        absorb(frame, *completed)
                        continue
                    # Every source matched: close out this derivation.
                    product = frame.product
                    rule_variable = rule_variable_of.get(record)
                    if rule_variable:
                        factor = rule_value(rule_variable)
                        product = factor if product is _UNIT else times(product, factor)
                    if product is _UNIT:
                        product = semiring.one()
                    frame.total = product if frame.total is _ABSENT else plus(frame.total, product)
                    frame.next_derivation()
                else:
                    frames.pop()
                    del on_path[frame.key]
                    if path_sccs[frame.scc_id] == 1:
                        del path_sccs[frame.scc_id]
                    else:
                        path_sccs[frame.scc_id] -= 1
                    if frame.low >= frame.depth:
                        # The value depended on nothing above this tuple on
                        # the path, so it is path-independent and kept.
                        memo[frame.key] = frame.total
                    completed = (frame.total, frame.low)
            result = completed[0]
            return semiring.zero() if result is _ABSENT else result

        return value

    #: Default bound on expanded-polynomial size, on by default so a
    #: combinatorial provenance raises instead of silently exhausting memory.
    DEFAULT_EXPANSION_BUDGET = 100_000

    def polynomial_for(
        self,
        relation: str,
        values: tuple,
        max_monomials: Optional[int] = DEFAULT_EXPANSION_BUDGET,
    ) -> Polynomial:
        """The provenance polynomial of a tuple (acyclic derivations only):
        its evaluation in ``N[X]``, every variable standing for itself.

        ``max_monomials`` bounds every fold of the evaluation (exceeding it
        raises :class:`ProvenanceError` before the fold is built; pass
        ``None`` to lift the bound).
        """
        polynomials = _BudgetedPolynomials(max_monomials)
        value = self._evaluator(polynomials, Polynomial.variable, Polynomial.variable)
        polynomial = value(self._id_of(relation, values))
        polynomials.check(polynomial.monomial_count())
        return polynomial

    def annotation(
        self,
        relation: str,
        values: tuple,
        semiring,
        assignment: Optional[Mapping[str, object]] = None,
        default: Optional[object] = None,
    ):
        """One tuple's annotation in ``semiring`` under ``assignment`` (see
        :meth:`evaluate`)."""
        lookup = _lookup(semiring, assignment, default)
        value = self._evaluator(semiring, lookup, lookup)
        key = self._id_of(relation, values)
        obs = self.observability
        if obs is None:
            return value(key)
        with obs.span("provenance.evaluate", relation=relation):
            result = value(key)
        obs.metrics.counter_add("provenance.evaluations", 1)
        return result

    def evaluate(
        self,
        semiring,
        assignment: Mapping[str, object],
        default: Optional[object] = None,
    ) -> dict[TupleKey, object]:
        """Evaluate every tuple's annotation in ``semiring``.

        ``assignment`` maps provenance variables (base tuples and, when
        enabled, mapping rules) to semiring values; variables missing from the
        assignment take ``default`` (or the semiring's one if ``default`` is
        ``None``).  Each annotation is the tuple's acyclic-derivation
        provenance evaluated on the graph — identical to evaluating the
        tuple's expanded polynomial, but computed in one pass that shares
        every path-independent value.  Evaluation always terminates, even
        for non-idempotent semirings over cyclic derivation graphs.
        """
        lookup = _lookup(semiring, assignment, default)
        value = self._evaluator(semiring, lookup, lookup)
        return {self._key(key): value(key) for key in range(self._tuple_count)}

    def is_derivable(
        self,
        relation: str,
        values: tuple,
        trusted_variables: Optional[Container[str]] = None,
    ) -> bool:
        """True when the tuple is derivable from base tuples.

        Without ``trusted_variables`` this reads the unsupported set (see
        :meth:`unsupported_tuples`).  With it — any container of variable
        names — only base tuples whose variable is in it count as support
        (the boolean-semiring trust evaluation of the paper, over the
        tuple's upstream cone); mapping-rule variables always count.
        """
        key = self._id_of(relation, values)
        if trusted_variables is None:
            self._flush_dirty()
            return key is not None and key not in self._unsupported
        trusted = self._evaluator(BooleanSemiring(), trusted_variables.__contains__, _trust_rule)
        return bool(trusted(key))

    def support_mark(self) -> int:
        """A mark for the ``since`` of :meth:`unsupported_tuples`: tuples
        that lose their support from now on are reported after it.

        Brings the set up to date first, so a tuple that earlier insertions
        revived has left it before the mark is taken and is reported again
        if it dies again.
        """
        self._flush_dirty()
        return self._unsupported_serial

    def unsupported_tuples(self, since: int = 0) -> list[TupleKey]:
        """Tuples that are not derivable from any base tuple, in the order
        they became so.

        Used by deletion propagation: after base deletions, these are the
        derived tuples that must be removed from the target instances.  The
        set is maintained on the adjacency, not recomputed: a call rechecks
        only the downstream cone of the tuples changed since the last one.
        Dead tuples stay in the graph (and in this answer) until support
        returns; ``since`` — a :meth:`support_mark` — narrows the answer to
        the tuples that entered the set after the mark was taken, at a cost
        proportional to their number.
        """
        self._flush_dirty()
        if not since:
            return [self._key(key) for key in self._unsupported]
        newly: list[TupleKey] = []
        for key in reversed(self._unsupported):
            if self._unsupported[key] <= since:
                break
            newly.append(self._key(key))
        newly.reverse()
        return newly

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tuples, derivations = self.size()
        return f"ProvenanceGraph(tuples={tuples}, derivations={derivations})"


def reference_polynomial(
    graph: ProvenanceGraph,
    relation: str,
    values: tuple,
    max_monomials: Optional[int] = None,
    max_visits: int = 500_000,
    max_depth: int = 500,
) -> Polynomial:
    """Expand a tuple's provenance by walking the derivation hyper-graph.

    This is the *independent reference implementation*: it shares no memo,
    no component ids and no code with the graph's evaluator, so differential
    oracles can pit the evaluator against it.  Cycles are cut exactly as in
    the evaluator (a tuple already being expanded on the current path
    contributes only its base variable), yielding the sum over all acyclic
    derivations.

    The walk shares nothing, so it can revisit shared sub-derivations
    exponentially often; ``max_visits`` bounds the traversal,
    ``max_monomials`` bounds intermediate polynomial sizes, and ``max_depth``
    bounds the derivation-chain depth (the walk recurses one frame per hop),
    each raising :class:`ProvenanceError` when exceeded.
    """
    visits = [0]

    def guard(worst_case: int) -> None:
        """Raise before a fold whose worst-case size exceeds the budget."""
        if max_monomials is not None and worst_case > max_monomials:
            raise ProvenanceError(
                f"reference expansion exceeded the budget of {max_monomials} monomials"
            )

    def check(polynomial: Polynomial) -> Polynomial:
        guard(polynomial.monomial_count())
        return polynomial

    def expand(key: TupleKey, on_path: frozenset) -> Polynomial:
        visits[0] += 1
        if visits[0] > max_visits:
            raise ProvenanceError(
                f"reference expansion exceeded {max_visits} node visits; "
                "evaluate provenance this shared on the graph"
            )
        if len(on_path) >= max_depth:
            raise ProvenanceError(
                f"reference expansion exceeded the depth bound of {max_depth} "
                "derivation hops; evaluate chains this deep on the graph"
            )
        node = graph.node(*key)
        if node is None:
            return Polynomial.zero()
        total = Polynomial.zero()
        if node.is_base and node.variable:
            total = Polynomial.variable(node.variable)
        if key in on_path:
            return total
        extended = on_path | {key}
        for derivation in graph.derivations_of(*key):
            product = Polynomial.one()
            dead_branch = False
            for source_key in derivation.sources:
                source_polynomial = expand(source_key, extended)
                if source_polynomial.is_zero():
                    dead_branch = True
                    break
                guard(product.monomial_count() * source_polynomial.monomial_count())
                product = check(product * source_polynomial)
            if dead_branch:
                continue
            if derivation.rule_variable:
                product = product * Polynomial.variable(derivation.rule_variable)
            guard(total.monomial_count() + product.monomial_count())
            total = check(total + product)
        return total

    return check(expand((relation, tuple(values)), frozenset()))
