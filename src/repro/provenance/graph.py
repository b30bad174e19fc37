"""The update-exchange provenance graph.

During update exchange ORCHESTRA does not materialise provenance polynomials
for every derived tuple; it maintains a *provenance graph* whose nodes are
tuples and whose hyper-edges are mapping-rule firings connecting the source
tuples of a firing to the tuple it derives.  Internally each tuple's
provenance is compiled — lazily, and cached — into a hash-consed circuit
(:mod:`repro.provenance.circuit`): sum/product/variable nodes interned by
structural identity, so sub-derivations shared across tuples, epochs and
replicas are stored once.  The graph supports:

* lazily expanding a tuple's provenance into an expression or polynomial
  (budget-bounded; kept for oracles and display),
* evaluating annotations in any commutative semiring directly on the DAG
  with per-(semiring, assignment) memo tables — cycles in the derivation
  graph (e.g. the Figure-2 network maps Σ1 → Σ2 → Σ1) are cut so every
  tuple's annotation is the sum over its *acyclic* derivations, matching
  the expanded-polynomial semantics exactly, and
* deletion propagation: after removing base tuples, finding which derived
  tuples have lost all support.  A change touches only its *downstream
  cone* — the tuples that transitively depend on the changed ones: their
  circuit roots are dropped, their component ids are recomputed on demand,
  and only they are re-evaluated to keep the set of unsupported tuples up
  to date.  Memoized node evaluations stay valid because circuit nodes are
  immutable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from ..errors import ProvenanceError
from .circuit import ZERO, CircuitEvaluator, CircuitStore, MembershipAssignment
from .expressions import ProvenanceExpression
from .polynomial import Polynomial
from .semiring import BooleanSemiring

#: A tuple node is identified by its relation name and its ground values.
TupleKey = tuple[str, tuple]

#: Evaluation representations: ``"circuit"`` evaluates the hash-consed DAG
#: with memo tables; ``"expanded"`` evaluates fully expanded polynomials per
#: tuple (the slow ablation representation the DAG replaces).
EVALUATION_MODES = ("circuit", "expanded")

_UNREACHED = float("inf")


class _ExpandFrame:
    """One in-progress tuple expansion of the iterative circuit compiler."""

    __slots__ = (
        "key", "depth", "scc_id", "alternatives", "derivations",
        "d_index", "s_index", "factors", "low",
    )

    def __init__(self, key, depth, scc_id, alternatives, derivations) -> None:
        self.key = key
        self.depth = depth
        self.scc_id = scc_id
        self.alternatives = alternatives
        self.derivations = derivations
        self.d_index = 0
        self.s_index = 0
        #: Circuit nodes of the current derivation's matched sources; None
        #: between derivations (and after a dead branch).
        self.factors = None
        self.low = _UNREACHED

    def absorb(self, child: int, child_low: float) -> None:
        """Fold one source's compiled ``(node, low)`` into the frame."""
        if child_low < self.low:
            self.low = child_low
        if child == ZERO:  # the whole derivation branch is dead
            self.factors = None
            self.d_index += 1
        else:
            self.factors.append(child)
            self.s_index += 1


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


class ProvenanceGraph:
    """A mutable provenance graph for one peer's (or the whole system's) data.

    Args:
        annotate_mappings: Give each mapping rule its own provenance variable
            (``m:<mapping_id>``) so trust policies can discount mapping hops.
        store: An existing :class:`CircuitStore` to intern circuit nodes in;
            sharing one store across graphs (e.g. across epochs or replicas
            of the same network) maximises structural sharing.  A fresh store
            is created when omitted.
        evaluation_mode: ``"circuit"`` (default) or ``"expanded"``; see
            :data:`EVALUATION_MODES`.
    """

    #: Bound on cached per-(semiring, assignment) evaluators (FIFO evicted).
    _EVALUATOR_CACHE_LIMIT = 64

    #: Installed (as an instance attribute) by IncrementalEngine when the
    #: owning system carries an Observability holder; annotation queries
    #: then emit ``circuit.evaluate`` spans and memo-hit-rate counters.
    observability = None

    def __init__(
        self,
        annotate_mappings: bool = False,
        store: Optional[CircuitStore] = None,
        evaluation_mode: str = "circuit",
    ) -> None:
        if evaluation_mode not in EVALUATION_MODES:
            raise ProvenanceError(
                f"unknown provenance evaluation mode {evaluation_mode!r}; "
                f"expected one of {EVALUATION_MODES}"
            )
        self._tuples: dict[TupleKey, TupleNode] = {}
        self._derivations: dict[tuple, DerivationNode] = {}
        self._derivations_by_target: dict[TupleKey, list[DerivationNode]] = defaultdict(list)
        self._derivations_by_source: dict[TupleKey, list[DerivationNode]] = defaultdict(list)
        self._annotate_mappings = annotate_mappings
        self.evaluation_mode = evaluation_mode
        self._store = store if store is not None else CircuitStore()
        #: Cached circuit root per tuple; invalidated transitively on change.
        self._roots: dict[TupleKey, int] = {}
        #: Tuples changed since the last flush.  ``True`` marks a change that
        #: can take support away (a demoted base tuple) or a tuple never
        #: evaluated (a new derived tuple): everything downstream is
        #: re-evaluated.  ``False`` marks added support (a new base tuple, a
        #: promotion, a new derivation), which can only revive tuples that
        #: are unsupported now.
        self._dirty: dict[TupleKey, bool] = {}
        #: The tuples not derivable from any base tuple, as of the last
        #: flush, each with the serial at which it entered (insertion order).
        self._unsupported: dict[TupleKey, int] = {}
        self._unsupported_serial = 0
        #: Strongly-connected-component id per tuple of the dependency graph
        #: (targets depend on sources).  Ids are assigned on demand and the
        #: tuples holding one are closed under "depends on"; a new derivation
        #: drops the ids downstream of its target, the only ones it can merge.
        self._scc: dict[TupleKey, int] = {}
        self._scc_counter = 0
        #: Cached evaluators keyed by (semiring, assignment, default).
        self._evaluators: dict[tuple, CircuitEvaluator] = {}
        #: Every rule variable ever attached to a derivation (trust questions
        #: treat them as unconditionally trusted unless assigned explicitly).
        self._rule_variables: set[str] = set()

    # -- construction -----------------------------------------------------
    def add_base_tuple(
        self, relation: str, values: tuple, variable: Optional[str] = None
    ) -> TupleNode:
        """Register a base (peer-inserted) tuple and give it a provenance variable."""
        key = (relation, tuple(values))
        existing = self._tuples.get(key)
        if existing is not None:
            if existing.is_base:
                return existing
            # A tuple previously known only as derived is now also asserted as
            # base data: promote it, keeping its derivations.
            promoted = TupleNode(
                relation, key[1], is_base=True, variable=variable or self._fresh_variable(key)
            )
            self._tuples[key] = promoted
            self._dirty.setdefault(key, False)
            return promoted
        node = TupleNode(
            relation, key[1], is_base=True, variable=variable or self._fresh_variable(key)
        )
        self._tuples[key] = node
        self._dirty.setdefault(key, False)
        return node

    def add_derived_tuple(self, relation: str, values: tuple) -> TupleNode:
        """Register a derived tuple (no variable of its own)."""
        key = (relation, tuple(values))
        existing = self._tuples.get(key)
        if existing is not None:
            return existing
        node = TupleNode(relation, key[1], is_base=False)
        self._tuples[key] = node
        # Unsupported until a derivation says otherwise: must be evaluated.
        self._dirty[key] = True
        return node

    def add_derivation(
        self,
        mapping_id: str,
        target: tuple[str, tuple],
        sources: Iterable[tuple[str, tuple]],
        rule_variable: Optional[str] = None,
    ) -> DerivationNode:
        """Record that ``sources`` jointly derive ``target`` through ``mapping_id``."""
        target_key: TupleKey = (target[0], tuple(target[1]))
        source_keys: tuple[TupleKey, ...] = tuple(
            (relation, tuple(values)) for relation, values in sources
        )
        self.add_derived_tuple(*target_key)
        for relation, values in source_keys:
            if (relation, values) not in self._tuples:
                # Sources that have never been registered are treated as
                # derived placeholders; they get no variable until someone
                # asserts them as base data.
                self.add_derived_tuple(relation, values)
        if self._annotate_mappings and rule_variable is None:
            rule_variable = f"m:{mapping_id}"
        derivation = DerivationNode(mapping_id, target_key, source_keys, rule_variable)
        if derivation.key in self._derivations:
            return self._derivations[derivation.key]
        self._derivations[derivation.key] = derivation
        self._derivations_by_target[target_key].append(derivation)
        for source_key in source_keys:
            self._derivations_by_source[source_key].append(derivation)
        if rule_variable:
            self._rule_variables.add(rule_variable)
        self._dirty.setdefault(target_key, False)
        if target_key in self._scc:
            self._forget_components(target_key)
        return derivation

    def remove_base_tuple(self, relation: str, values: tuple) -> bool:
        """Demote a base tuple to derived-only (it was deleted at its origin).

        The tuple node and its derivations stay in the graph; whether it is
        still derivable is decided by :meth:`unsupported_tuples` /
        :meth:`is_derivable`.
        Returns True when the tuple was a base tuple.
        """
        key = (relation, tuple(values))
        node = self._tuples.get(key)
        if node is None or not node.is_base:
            return False
        self._tuples[key] = TupleNode(relation, key[1], is_base=False)
        self._dirty[key] = True
        return True

    def _fresh_variable(self, key: TupleKey) -> str:
        relation, values = key
        rendered = ",".join(str(value) for value in values)
        return f"{relation}({rendered})"

    # -- inspection ----------------------------------------------------------
    def node(self, relation: str, values: tuple) -> Optional[TupleNode]:
        return self._tuples.get((relation, tuple(values)))

    def tuples(self) -> Iterable[TupleNode]:
        return self._tuples.values()

    def derivations(self) -> Iterable[DerivationNode]:
        return self._derivations.values()

    def derivations_of(self, relation: str, values: tuple) -> list[DerivationNode]:
        return list(self._derivations_by_target.get((relation, tuple(values)), ()))

    def derivations_from(self, relation: str, values: tuple) -> list[DerivationNode]:
        return list(self._derivations_by_source.get((relation, tuple(values)), ()))

    def base_variables(self) -> dict[str, TupleKey]:
        """Map each provenance variable to the base tuple it annotates."""
        return {
            node.variable: key
            for key, node in self._tuples.items()
            if node.is_base and node.variable
        }

    def size(self) -> tuple[int, int]:
        """Return ``(tuple nodes, derivation nodes)``."""
        return (len(self._tuples), len(self._derivations))

    # -- circuit compilation --------------------------------------------------
    @property
    def circuit(self) -> CircuitStore:
        """The hash-consed circuit store backing this graph."""
        return self._store

    def circuit_size(self) -> tuple[int, int]:
        """``(interned nodes, child edges)`` of the backing circuit store."""
        return (self._store.node_count(), self._store.edge_count())

    def dag_size(self, relation: str, values: tuple) -> tuple[int, int]:
        """``(nodes, edges)`` of one tuple's provenance sub-DAG."""
        return self._store.reachable_size([self.root(relation, values)])

    def root(self, relation: str, values: tuple) -> int:
        """The circuit node denoting a tuple's provenance (``ZERO`` if unknown)."""
        return self._root_for((relation, tuple(values)))

    def _flush_dirty(self) -> None:
        """Bring roots and the unsupported set up to date with the changes.

        Walks the downstream cone of the changed tuples once: every member's
        cached root is dropped, and the members whose derivability can have
        changed are re-evaluated.  Tuples outside the cone keep their roots
        and their status, so a flush costs what the change touches.
        """
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, {}
        roots = self._roots
        by_source = self._derivations_by_source
        unsupported = self._unsupported
        seen: set[TupleKey] = set()
        recheck: list[TupleKey] = []
        # Cones that may have lost support first, so a tuple in both kinds of
        # cone is re-evaluated whether or not it is unsupported now.
        for may_lose_support in (True, False):
            queue = [
                key for key, flag in dirty.items() if flag is may_lose_support and key not in seen
            ]
            seen.update(queue)
            while queue:
                key = queue.pop()
                roots.pop(key, None)
                if may_lose_support or key in unsupported:
                    recheck.append(key)
                for derivation in by_source.get(key, ()):
                    target = derivation.target
                    if target not in seen:
                        seen.add(target)
                        queue.append(target)
        if not recheck:
            return
        if self.evaluation_mode == "expanded":
            store = self._store

            def supported(root: int) -> bool:
                return not store.to_polynomial(root).is_zero()
        else:
            supported = self.evaluator(BooleanSemiring(), {}, default=True).value
        for key in recheck:
            root = roots.get(key)
            if root is None:
                root = self._compile_root(key)
            if supported(root):
                unsupported.pop(key, None)
            elif key not in unsupported:
                self._unsupported_serial += 1
                unsupported[key] = self._unsupported_serial

    def _forget_components(self, key: TupleKey) -> None:
        """Drop the component ids of ``key`` and of everything downstream.

        A new derivation of ``key`` can only merge components on a cycle
        through ``key``, and those lie in its downstream cone.  Because the
        tuples holding an id are closed under "depends on", a tuple without
        one has nothing with an id downstream and the walk stops there (the
        caller skips the call for a target without an id, the common case).
        """
        scc = self._scc
        del scc[key]
        by_source = self._derivations_by_source
        queue = [key]
        while queue:
            for derivation in by_source.get(queue.pop(), ()):
                target = derivation.target
                if scc.pop(target, None) is not None:
                    queue.append(target)

    def _assign_components(self, start: TupleKey) -> dict[TupleKey, int]:
        """Give ``start`` and everything it depends on a component id
        (iterative Tarjan from ``start``).

        Two tuples share an id exactly when each (transitively) derives the
        other; the circuit compiler uses this to decide when a cached root is
        safe to reuse mid-expansion.  A tuple's component lies inside what it
        reaches, and tuples that already hold an id reach only tuples that
        hold one, so they count as finished and the walk covers just the part
        without ids.  New ids come from a monotone counter and never collide
        with the ones kept.
        """
        sccs = self._scc
        if start in sccs:
            return sccs
        tuples = self._tuples
        by_target = self._derivations_by_target
        index: dict[TupleKey, int] = {}
        low: dict[TupleKey, int] = {}
        on_stack: set[TupleKey] = set()
        component_stack: list[TupleKey] = []
        counter = 0

        def successors(node: TupleKey):
            return iter(
                [
                    source
                    for derivation in by_target.get(node, ())
                    for source in derivation.sources
                    if source in tuples and source not in sccs
                ]
            )

        index[start] = low[start] = counter
        counter += 1
        component_stack.append(start)
        on_stack.add(start)
        work: list[tuple[TupleKey, object]] = [(start, successors(start))]
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
                    sccs[member] = self._scc_counter
                    if member == node:
                        break
                self._scc_counter += 1
        return sccs

    def _root_for(self, key: TupleKey) -> int:
        self._flush_dirty()
        cached = self._roots.get(key)
        if cached is not None:
            return cached
        return self._compile_root(key)

    def _compile_root(self, start: TupleKey) -> int:
        """Compile one tuple's acyclic provenance into the circuit store.

        Explicit-frame depth-first expansion (no Python recursion, so
        arbitrarily deep derivation chains compile without hitting the
        interpreter's recursion limit).  Each frame tracks ``low``, the
        smallest on-path depth its expansion touched (Tarjan-style): an
        expansion is only memoized in ``self._roots`` when it did not depend
        on any tuple *above* it on the current path, i.e. when the result is
        path-independent.  A cached root is only *reused* when no member of
        its strongly connected component sits on the current path — a root
        cached for one entry point of a cycle sums over paths through the
        other members, which must stay cut while those members are being
        expanded.  Tuples already on the current path contribute only their
        base variable (cycle cut), which yields the sum over all acyclic
        derivations — the finite part of the least fixpoint.
        """
        sccs = self._assign_components(start)
        store = self._store
        tuples = self._tuples
        by_target = self._derivations_by_target
        roots = self._roots
        on_path: dict[TupleKey, int] = {}
        path_sccs: dict = {}
        frames: list[_ExpandFrame] = []

        def resolve(key: TupleKey, depth: int):
            """Immediate ``(node, low)`` when no descent is needed, else
            ``None`` after pushing a frame for the tuple."""
            cached = roots.get(key)
            if cached is not None and sccs.get(key) not in path_sccs:
                return (cached, _UNREACHED)
            node = tuples.get(key)
            path_depth = on_path.get(key)
            if path_depth is not None:
                if node is not None and node.is_base and node.variable:
                    return (store.var(node.variable), path_depth)
                return (ZERO, path_depth)
            if node is None:
                return (ZERO, _UNREACHED)
            alternatives: list[int] = []
            if node.is_base and node.variable:
                alternatives.append(store.var(node.variable))
            on_path[key] = depth
            scc_id = sccs.get(key)
            path_sccs[scc_id] = path_sccs.get(scc_id, 0) + 1
            frames.append(
                _ExpandFrame(key, depth, scc_id, alternatives, by_target.get(key, ()))
            )
            return None

        immediate = resolve(start, 0)
        if immediate is not None:
            return immediate[0]
        completed = None  # (node, low) of the frame that just finished
        while frames:
            frame = frames[-1]
            if completed is not None:
                frame.absorb(*completed)
                completed = None
            descended = False
            while frame.d_index < len(frame.derivations):
                derivation = frame.derivations[frame.d_index]
                if frame.factors is None:
                    frame.factors = []
                    frame.s_index = 0
                sources = derivation.sources
                if frame.s_index < len(sources):
                    value = resolve(sources[frame.s_index], frame.depth + 1)
                    if value is None:
                        descended = True
                        break
                    frame.absorb(*value)
                    continue
                # Every source matched: close out this derivation.
                factors = frame.factors
                if derivation.rule_variable:
                    factors.append(store.var(derivation.rule_variable))
                frame.alternatives.append(store.product_of(factors))
                frame.factors = None
                frame.d_index += 1
            if descended:
                continue
            frames.pop()
            del on_path[frame.key]
            if path_sccs[frame.scc_id] == 1:
                del path_sccs[frame.scc_id]
            else:
                path_sccs[frame.scc_id] -= 1
            result = store.sum_of(frame.alternatives)
            if frame.low >= frame.depth:
                # The expansion depended on nothing above this tuple on the
                # path, so it is path-independent and safe to cache.
                roots[frame.key] = result
            completed = (result, frame.low)
        return completed[0]

    # -- provenance expansion -------------------------------------------------
    def expression_for(
        self, relation: str, values: tuple, max_depth: int = 32
    ) -> ProvenanceExpression:
        """Expand a tuple's provenance into an expression DAG.

        Cycles in the derivation graph are cut during circuit compilation,
        yielding the sum over all *acyclic* derivations.  ``max_depth`` is
        kept for API compatibility; the circuit expansion is exact and no
        longer needs a depth bound.
        """
        key = (relation, tuple(values))
        return self._store.to_expression(self._root_for(key))

    #: Default bound on expanded-polynomial size.  The pre-circuit expander
    #: was (weakly) bounded by a depth cutoff; with exact expansion the
    #: budget is the safety knob, on by default so a combinatorial
    #: provenance raises instead of silently exhausting memory.
    DEFAULT_EXPANSION_BUDGET = 100_000

    def polynomial_for(
        self,
        relation: str,
        values: tuple,
        max_depth: int = 32,
        max_monomials: Optional[int] = DEFAULT_EXPANSION_BUDGET,
    ) -> Polynomial:
        """The provenance polynomial of a tuple (acyclic derivations only).

        The polynomial is a lazy view expanded from the hash-consed circuit;
        ``max_monomials`` bounds the expansion (exceeding it raises
        :class:`ProvenanceError`; pass ``None`` to lift the bound).
        ``max_depth`` is kept for API compatibility and no longer limits the
        (exact) expansion — the budget replaced it as the safety knob.
        """
        key = (relation, tuple(values))
        return self._store.to_polynomial(self._root_for(key), max_monomials=max_monomials)

    # -- semiring evaluation --------------------------------------------------
    def _evaluator_cache_key(self, semiring, assignment, default) -> Optional[tuple]:
        if isinstance(assignment, MembershipAssignment):
            signature: object = assignment.cache_key
        else:
            try:
                signature = frozenset((assignment or {}).items())
            except TypeError:
                return None
        key = (semiring, signature, default)
        try:
            hash(key)  # unhashable semiring/assignment values/default
        except TypeError:
            return None
        return key

    def evaluator(
        self,
        semiring,
        assignment: Optional[Mapping[str, object]] = None,
        default: Optional[object] = None,
    ) -> CircuitEvaluator:
        """A memoized circuit evaluator for ``semiring`` under ``assignment``.

        Evaluators are cached per (semiring, assignment, default) so repeated
        trust questions share memo tables; node memo entries stay valid
        across insertions and deletions because circuit nodes are immutable.
        """
        key = self._evaluator_cache_key(semiring, assignment, default)
        if key is None:
            return CircuitEvaluator(self._store, semiring, assignment, default)
        evaluator = self._evaluators.get(key)
        if evaluator is None:
            evaluator = CircuitEvaluator(self._store, semiring, assignment, default)
            if len(self._evaluators) >= self._EVALUATOR_CACHE_LIMIT:
                self._evaluators.pop(next(iter(self._evaluators)))
            self._evaluators[key] = evaluator
        return evaluator

    def annotation(
        self,
        relation: str,
        values: tuple,
        semiring,
        assignment: Optional[Mapping[str, object]] = None,
        default: Optional[object] = None,
    ):
        """One tuple's annotation in ``semiring`` under ``assignment``."""
        key = (relation, tuple(values))
        obs = self.observability
        if self.evaluation_mode == "expanded":
            if obs is not None:
                with obs.span("circuit.evaluate", mode="expanded", relation=relation):
                    result = self._expanded_annotation(
                        key, semiring, assignment or {}, default
                    )
                obs.metrics.counter_add("provenance.circuit.evaluations", 1)
                return result
            return self._expanded_annotation(key, semiring, assignment or {}, default)
        evaluator = self.evaluator(semiring, assignment, default)
        if obs is None:
            return evaluator.value(self._root_for(key))
        hits_before = evaluator.hits
        with obs.span("circuit.evaluate", mode="circuit", relation=relation):
            result = evaluator.value(self._root_for(key))
        metrics = obs.metrics
        metrics.counter_add("provenance.circuit.evaluations", 1)
        metrics.counter_add("provenance.circuit.memo_lookups", 1)
        if evaluator.hits > hits_before:
            metrics.counter_add("provenance.circuit.memo_hits", 1)
        return result

    def _expanded_annotation(self, key: TupleKey, semiring, assignment, default):
        """Expanded-representation path: materialise the tuple's ``N[X]``
        polynomial and evaluate it with :meth:`Polynomial.evaluate`.

        This is the ablation representation the DAG replaces: per-tuple
        expanded polynomials, paying their (potentially combinatorial) size
        on every question instead of sharing memoized node evaluations.  For
        a *fully independent* cross-check of circuit compilation itself, use
        :func:`reference_polynomial`, which re-walks the derivation
        hyper-graph without touching the circuit (the simulation's
        dag-vs-expanded oracle does).
        """
        polynomial = self._store.to_polynomial(self._root_for(key))
        fallback = semiring.one() if default is None else default
        completed = {
            variable: assignment.get(variable, fallback)
            for variable in polynomial.variables()
        }
        return polynomial.evaluate(semiring, completed)

    def evaluate(
        self,
        semiring,
        assignment: Mapping[str, object],
        default: Optional[object] = None,
        max_iterations: int = 1000,
    ) -> dict[TupleKey, object]:
        """Evaluate every tuple's annotation in ``semiring``.

        ``assignment`` maps provenance variables (base tuples and, when
        enabled, mapping rules) to semiring values; variables missing from the
        assignment take ``default`` (or the semiring's one if ``default`` is
        ``None``).  Each annotation is the tuple's acyclic-derivation
        provenance evaluated through the memoized circuit — identical to
        evaluating the tuple's expanded polynomial, but computed in one
        shared pass over the DAG.  ``max_iterations`` is retained for API
        compatibility; circuit evaluation always terminates, even for
        non-idempotent semirings over cyclic derivation graphs.
        """
        if self.evaluation_mode == "expanded":
            return {
                key: self._expanded_annotation(key, semiring, assignment, default)
                for key in self._tuples
            }
        evaluator = self.evaluator(semiring, assignment, default)
        return {key: evaluator.value(self._root_for(key)) for key in self._tuples}

    def is_derivable(
        self,
        relation: str,
        values: tuple,
        trusted_variables: Optional[set[str]] = None,
    ) -> bool:
        """True when the tuple is derivable from base tuples.

        When ``trusted_variables`` is given, only base tuples whose provenance
        variable is in the set count as support (the boolean-semiring trust
        evaluation of the paper).
        """
        key = (relation, tuple(values))
        boolean = BooleanSemiring()
        if trusted_variables is None:
            assignment: Mapping[str, object] = {}
            default: object = True
        else:
            assignment = MembershipAssignment(trusted_variables, self._rule_variables)
            default = False
        if self.evaluation_mode == "expanded":
            return bool(self._expanded_annotation(key, boolean, assignment, default))
        evaluator = self.evaluator(boolean, assignment, default)
        return bool(evaluator.value(self._root_for(key)))

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
        set is maintained, not recomputed: a call re-evaluates only the
        downstream cone of the tuples changed since the last one.  Dead
        tuples stay in the graph (and in this answer) until support returns;
        ``since`` — a :meth:`support_mark` — narrows the answer to the tuples
        that entered the set after the mark was taken, at a cost proportional
        to their number.
        """
        self._flush_dirty()
        if not since:
            return list(self._unsupported)
        newly: list[TupleKey] = []
        for key in reversed(self._unsupported):
            if self._unsupported[key] <= since:
                break
            newly.append(key)
        newly.reverse()
        return newly

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tuples, derivations = self.size()
        nodes, edges = self.circuit_size()
        return (
            f"ProvenanceGraph(tuples={tuples}, derivations={derivations}, "
            f"circuit_nodes={nodes}, circuit_edges={edges})"
        )


def reference_polynomial(
    graph: ProvenanceGraph,
    relation: str,
    values: tuple,
    max_monomials: Optional[int] = None,
    max_visits: int = 500_000,
    max_depth: int = 500,
) -> Polynomial:
    """Expand a tuple's provenance by walking the derivation hyper-graph.

    This is the *independent reference implementation*: it never touches the
    hash-consed circuit store, so differential oracles can pit circuit
    compilation and memoized evaluation against it.  Cycles are cut exactly
    as in circuit compilation (a tuple already being expanded on the current
    path contributes only its base variable), yielding the sum over all
    acyclic derivations.

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
                "use the circuit representation for provenance this shared"
            )
        if len(on_path) >= max_depth:
            raise ProvenanceError(
                f"reference expansion exceeded the depth bound of {max_depth} "
                "derivation hops; use the circuit representation for chains this deep"
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


def merge_graphs(graphs: Iterable[ProvenanceGraph]) -> ProvenanceGraph:
    """Union several provenance graphs into a new one."""
    merged = ProvenanceGraph()
    for graph in graphs:
        for node in graph.tuples():
            if node.is_base:
                merged.add_base_tuple(node.relation, node.values, node.variable)
            else:
                merged.add_derived_tuple(node.relation, node.values)
        for derivation in graph.derivations():
            merged.add_derivation(
                derivation.mapping_id,
                derivation.target,
                derivation.sources,
                derivation.rule_variable,
            )
    return merged
