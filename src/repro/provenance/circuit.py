"""Hash-consed provenance circuits (shared DAG store).

ORCHESTRA stores one universal ``N[X]`` provenance and re-evaluates it under
many trust semirings.  Materialising that provenance as fully expanded
polynomials is combinatorial: monomial counts multiply along join/split
mapping chains, and every trust question re-walks the expansion.  This module
stores provenance as a *hash-consed circuit* instead:

* A :class:`CircuitStore` interns sum/product/variable nodes by structural
  identity, so a sub-derivation shared by many tuples (or by many epochs and
  replicas feeding the same store) is stored exactly once and is identified
  by a single integer node id.
* Because ``+`` and ``*`` are commutative and associative in every
  commutative semiring, operands are flattened and canonically sorted before
  interning — two circuits denoting the same polynomial through different
  construction orders intern to the same node.
* A :class:`CircuitEvaluator` evaluates nodes into a target semiring with a
  per-(semiring, assignment) memo table.  Nodes are immutable, so memo
  entries never need invalidation: deleting base data changes which root a
  tuple points at, never the meaning of an existing node.

Polynomial expansion (:meth:`CircuitStore.to_polynomial`) is kept as a lazy,
budget-bounded view used by oracles and display code.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..errors import ProvenanceError
from .polynomial import Polynomial

#: Reserved node ids for the additive and multiplicative identities.
ZERO = 0
ONE = 1

#: Node kinds (stored per node id).
KIND_ZERO = "0"
KIND_ONE = "1"
KIND_VAR = "v"
KIND_SUM = "+"
KIND_PROD = "*"


def _check_budget(monomials: int, max_monomials: Optional[int]) -> None:
    """Raise when an expansion (or the fold about to run) exceeds the budget."""
    if max_monomials is not None and monomials > max_monomials:
        raise ProvenanceError(
            f"polynomial expansion exceeded the budget of {max_monomials} "
            f"monomials (needed up to {monomials}); evaluate the circuit "
            "directly or raise max_monomials"
        )


class CircuitStore:
    """An append-only store of hash-consed provenance circuit nodes.

    Node ids are dense integers; ids ``ZERO`` and ``ONE`` are pre-interned.
    Construction goes through :meth:`var`, :meth:`sum_of` and
    :meth:`product_of`, which apply the semiring identity laws (``0 + x =
    x``, ``1 * x = x``, ``0 * x = 0``), flatten nested sums/products, and
    canonically sort operands (keeping duplicates: ``x + x`` denotes ``2x``
    and ``x * x`` denotes ``x^2``) before interning.
    """

    __slots__ = ("_kinds", "_payloads", "_intern")

    def __init__(self) -> None:
        self._kinds: list[str] = [KIND_ZERO, KIND_ONE]
        self._payloads: list = [None, None]
        self._intern: dict[tuple, int] = {}

    # -- construction -----------------------------------------------------
    def _intern_node(self, kind: str, payload) -> int:
        key = (kind, payload)
        node = self._intern.get(key)
        if node is None:
            node = len(self._kinds)
            self._kinds.append(kind)
            self._payloads.append(payload)
            self._intern[key] = node
        return node

    def var(self, name: str) -> int:
        """Intern a provenance variable (a base tuple or mapping identifier)."""
        if not name:
            raise ProvenanceError("provenance variables require a non-empty name")
        return self._intern_node(KIND_VAR, name)

    def sum_of(self, operands: Iterable[int]) -> int:
        """Intern the sum of alternative derivations (flattening nested sums)."""
        flattened: list[int] = []
        for operand in operands:
            if operand == ZERO:
                continue
            if self._kinds[operand] == KIND_SUM:
                flattened.extend(self._payloads[operand])
            else:
                flattened.append(operand)
        if not flattened:
            return ZERO
        if len(flattened) == 1:
            return flattened[0]
        flattened.sort()
        return self._intern_node(KIND_SUM, tuple(flattened))

    def product_of(self, operands: Iterable[int]) -> int:
        """Intern the product of jointly used inputs (flattening, absorbing 0)."""
        flattened: list[int] = []
        for operand in operands:
            if operand == ZERO:
                return ZERO
            if operand == ONE:
                continue
            if self._kinds[operand] == KIND_PROD:
                flattened.extend(self._payloads[operand])
            else:
                flattened.append(operand)
        if not flattened:
            return ONE
        if len(flattened) == 1:
            return flattened[0]
        flattened.sort()
        return self._intern_node(KIND_PROD, tuple(flattened))

    # -- inspection --------------------------------------------------------
    def kind(self, node: int) -> str:
        return self._kinds[node]

    def children(self, node: int) -> tuple[int, ...]:
        if self._kinds[node] in (KIND_SUM, KIND_PROD):
            return self._payloads[node]
        return ()

    def node_count(self) -> int:
        """Total interned nodes (including the two constants)."""
        return len(self._kinds)

    def edge_count(self) -> int:
        """Total child edges across every interned node."""
        return sum(
            len(payload)
            for kind, payload in zip(self._kinds, self._payloads)
            if kind in (KIND_SUM, KIND_PROD)
        )

    def __len__(self) -> int:
        return len(self._kinds)

    def reachable_size(self, roots: Iterable[int]) -> tuple[int, int]:
        """``(nodes, edges)`` of the sub-DAG reachable from ``roots``."""
        seen: set[int] = set()
        edges = 0
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            kids = self.children(node)
            edges += len(kids)
            stack.extend(kids)
        return (len(seen), edges)

    def variables(self, node: int) -> set[str]:
        """Every provenance variable reachable from ``node``."""
        found: set[str] = set()
        seen: set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            kind = self._kinds[current]
            if kind == KIND_VAR:
                found.add(self._payloads[current])
            else:
                stack.extend(self.children(current))
        return found

    # -- lazy expanded views ------------------------------------------------
    def to_polynomial(self, node: int, max_monomials: Optional[int] = None) -> Polynomial:
        """Expand a circuit node into an ``N[X]`` polynomial.

        ``max_monomials`` bounds the monomial count of every intermediate
        (and therefore the final) polynomial; exceeding the budget raises
        :class:`ProvenanceError`.  Bounds are checked *before* each fold
        against the worst-case size of its result, so a combinatorial
        product raises instead of materialising first (conservatively: a
        product whose terms would have merged back under the budget is
        rejected too).  Expansion is memoized per call, so shared
        sub-circuits are expanded once.
        """
        memo: dict[int, Polynomial] = {}
        stack = [node]
        while stack:
            current = stack[-1]
            if current in memo:
                stack.pop()
                continue
            kind = self._kinds[current]
            if kind == KIND_ZERO:
                memo[current] = Polynomial.zero()
            elif kind == KIND_ONE:
                memo[current] = Polynomial.one()
            elif kind == KIND_VAR:
                memo[current] = Polynomial.variable(self._payloads[current])
            else:
                pending = [c for c in self._payloads[current] if c not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                if kind == KIND_SUM:
                    result = Polynomial.zero()
                    for child in self._payloads[current]:
                        # Pre-check the (upper bound on the) fold size so a
                        # blowup raises before the work is done, not after.
                        _check_budget(
                            result.monomial_count() + memo[child].monomial_count(),
                            max_monomials,
                        )
                        result = result + memo[child]
                else:
                    result = Polynomial.one()
                    for child in self._payloads[current]:
                        _check_budget(
                            result.monomial_count() * memo[child].monomial_count(),
                            max_monomials,
                        )
                        result = result * memo[child]
                _check_budget(result.monomial_count(), max_monomials)
                memo[current] = result
            stack.pop()
        expanded = memo[node]
        # Leaf roots (variables, constants) skip the per-node check above.
        _check_budget(expanded.monomial_count(), max_monomials)
        return expanded

    def describe(self, node: int) -> str:
        """Render a node as a (possibly exponentially smaller) nested term."""
        kind = self._kinds[node]
        if kind == KIND_ZERO:
            return "0"
        if kind == KIND_ONE:
            return "1"
        if kind == KIND_VAR:
            return self._payloads[node]
        symbol = " + " if kind == KIND_SUM else " * "
        return "(" + symbol.join(self.describe(c) for c in self._payloads[node]) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitStore(nodes={self.node_count()}, edges={self.edge_count()})"


class MembershipAssignment:
    """An assignment that answers variable lookups by set membership.

    Used for boolean trust questions: base-tuple variables map to membership
    in the trusted set, while mapping-rule variables (which carry no trust of
    their own) always map to ``True``.  The instance is hashable through
    :attr:`cache_key`, so evaluators built from the same trusted set share
    one memo table.
    """

    __slots__ = ("_trusted", "_rule_variables")

    def __init__(self, trusted: Iterable[str], rule_variables: Optional[set] = None) -> None:
        self._trusted = frozenset(trusted)
        #: Live reference: the graph's rule-variable set may grow later.
        self._rule_variables = rule_variables if rule_variables is not None else frozenset()

    @property
    def cache_key(self) -> tuple:
        # The rule-variable view participates: two assignments with the same
        # trusted set but different rule-variable treatment must not share a
        # memoized evaluator.  Snapshot the (live) set — if the graph later
        # registers new rule variables the key changes, which only costs a
        # fresh evaluator, never a stale answer.
        return ("membership", self._trusted, frozenset(self._rule_variables))

    def get(self, name: str, default=None):
        if name in self._rule_variables:
            return True
        return name in self._trusted

    def __getitem__(self, name: str):
        return self.get(name)


class CircuitEvaluator:
    """Memoized evaluation of circuit nodes into one target semiring.

    The memo table maps node id to semiring value; because nodes are
    immutable and hash-consed, entries stay valid for the lifetime of the
    store — re-evaluating after an insertion or deletion only computes the
    (few) nodes that were newly created.
    """

    __slots__ = ("_store", "_semiring", "_assignment", "_default", "_memo",
                 "hits", "lookups")

    def __init__(
        self,
        store: CircuitStore,
        semiring,
        assignment: Optional[Mapping[str, object]] = None,
        default: Optional[object] = None,
    ) -> None:
        self._store = store
        self._semiring = semiring
        # Snapshot plain mappings: cached evaluators outlive the call, and a
        # caller mutating its dict afterwards must not corrupt memoized (or
        # future) lookups.  MembershipAssignment is kept by reference — its
        # trusted set is frozen and its rule-variable view is meant to be live.
        if assignment is None:
            self._assignment: Mapping[str, object] = {}
        elif isinstance(assignment, MembershipAssignment):
            self._assignment = assignment
        else:
            self._assignment = dict(assignment)
        self._default = semiring.one() if default is None else default
        self._memo: dict[int, object] = {
            ZERO: semiring.zero(),
            ONE: semiring.one(),
        }
        #: Root-level memo telemetry: how many :meth:`value` calls were
        #: answered straight from the memo table.  Mirrored into the
        #: ``provenance.circuit.memo_*`` metrics by the provenance graph.
        self.hits = 0
        self.lookups = 0

    @property
    def semiring(self):
        return self._semiring

    def memo_size(self) -> int:
        return len(self._memo)

    def value(self, node: int):
        """The semiring value of ``node`` under this evaluator's assignment."""
        memo = self._memo
        self.lookups += 1
        cached = memo.get(node)
        if cached is not None or node in memo:
            self.hits += 1
            return cached
        store = self._store
        semiring = self._semiring
        assignment = self._assignment
        default = self._default
        kinds = store._kinds
        payloads = store._payloads
        stack = [node]
        while stack:
            current = stack[-1]
            if current in memo:
                stack.pop()
                continue
            kind = kinds[current]
            if kind == KIND_VAR:
                memo[current] = assignment.get(payloads[current], default)
                stack.pop()
                continue
            children = payloads[current]
            pending = [c for c in children if c not in memo]
            if pending:
                stack.extend(pending)
                continue
            if kind == KIND_SUM:
                result = semiring.zero()
                for child in children:
                    result = semiring.plus(result, memo[child])
            else:
                result = semiring.one()
                for child in children:
                    result = semiring.times(result, memo[child])
            memo[current] = result
            stack.pop()
        return memo[node]

    def values(self, nodes: Iterable[int]) -> list:
        return [self.value(node) for node in nodes]
