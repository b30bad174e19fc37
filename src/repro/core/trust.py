"""Trust conditions and per-peer trust policies.

Reconciliation uses *trust conditions* — predicates over the content and
provenance of updates — to attach numeric priorities to candidate
transactions.  In the Figure-2 network, for example:

* Alaska, Beijing and Dresden trust all other participants equally, while
* Crete trusts only Beijing and Dresden, preferring Beijing in a conflict.

A :class:`TrustPolicy` combines ordered :class:`TrustCondition` rules with a
fallback table of per-peer priorities.  Priority 0 means "distrusted": an
update that only receives priority 0 is rejected during reconciliation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from ..errors import TrustError
from .schema import PeerSchema
from .updates import Update

#: A content predicate receives ``{attribute: value}`` for the update's tuple
#: and returns whether the condition applies.
ContentPredicate = Callable[[Mapping[str, object]], bool]


@dataclass(frozen=True)
class TrustCondition:
    """One trust rule: *if the update matches, assign this priority*.

    Attributes:
        priority: Priority granted to matching updates (0 = distrust/reject).
        origin_peer: Only match updates originally made at this peer.
        relation: Only match updates against this relation (in the evaluating
            peer's schema, i.e. after translation).
        predicate: Optional content predicate over the update's tuple, given
            as ``{attribute: value}``.
        description: Human-readable explanation used in reports.
    """

    priority: int
    origin_peer: Optional[str] = None
    relation: Optional[str] = None
    predicate: Optional[ContentPredicate] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise TrustError("trust priorities must be non-negative")

    def matches(self, update: Update, schema: Optional[PeerSchema] = None) -> bool:
        """Does this condition apply to ``update``?"""
        if self.origin_peer is not None and update.origin != self.origin_peer:
            return False
        if self.relation is not None and update.relation != self.relation:
            return False
        if self.predicate is not None:
            if schema is None or not schema.has_relation(update.relation):
                return False
            row = schema.relation(update.relation).as_dict(update.values)
            if not self.predicate(row):
                return False
        return True

    def __str__(self) -> str:
        parts = []
        if self.origin_peer:
            parts.append(f"from {self.origin_peer}")
        if self.relation:
            parts.append(f"on {self.relation}")
        if self.predicate:
            parts.append("matching predicate")
        clause = " ".join(parts) or "any update"
        text = f"{clause} -> priority {self.priority}"
        if self.description:
            text += f" ({self.description})"
        return text


@dataclass
class TrustPolicy:
    """A peer's complete trust policy.

    Evaluation order: the first matching :class:`TrustCondition` wins;
    otherwise the per-peer priority table applies; otherwise
    ``default_priority``.  The originating peer's own updates are always
    fully trusted (they are already applied locally).
    """

    owner: str
    conditions: list[TrustCondition] = field(default_factory=list)
    peer_priorities: dict[str, int] = field(default_factory=dict)
    #: The priority of an update that matches no condition and no peer in
    #: the table: the one setting that governs such unmatched updates
    #: (``trust * <priority>`` in a spec).  0 rejects them; the default 1
    #: trusts them at the lowest positive priority.
    default_priority: int = 1
    own_priority: int = 1_000_000
    #: When True, an update is additionally required to be *derivable from
    #: trusted peers' published data* (checked over provenance) to keep a
    #: positive priority.  The demonstration scenarios use origin-based trust
    #: only, so this is off by default.
    require_trusted_provenance: bool = False

    def __post_init__(self) -> None:
        if self.default_priority < 0:
            raise TrustError("default_priority must be non-negative")
        for priority in self.peer_priorities.values():
            if priority < 0:
                raise TrustError("peer priorities must be non-negative")

    # -- construction helpers ------------------------------------------------
    @staticmethod
    def trust_all(owner: str, priority: int = 1) -> "TrustPolicy":
        """The policy used by Alaska, Beijing and Dresden: trust everyone equally."""
        return TrustPolicy(owner=owner, default_priority=priority)

    @staticmethod
    def trust_only(
        owner: str, priorities: Mapping[str, int], others: int = 0
    ) -> "TrustPolicy":
        """Trust only the listed peers (e.g. Crete: Beijing=2, Dresden=1, others 0)."""
        return TrustPolicy(
            owner=owner,
            peer_priorities=dict(priorities),
            default_priority=others,
        )

    def add_condition(self, condition: TrustCondition) -> "TrustPolicy":
        self.conditions.append(condition)
        return self

    # -- evaluation ---------------------------------------------------------
    def priority_for_update(
        self, update: Update, schema: Optional[PeerSchema] = None
    ) -> int:
        """Priority assigned to one translated update."""
        if update.origin == self.owner:
            return self.own_priority
        for condition in self.conditions:
            if condition.matches(update, schema):
                return condition.priority
        if update.origin in self.peer_priorities:
            return self.peer_priorities[update.origin]
        return self.default_priority

    def priority_for_updates(
        self, updates: Iterable[Update], schema: Optional[PeerSchema] = None
    ) -> int:
        """Priority of a whole transaction: the *minimum* over its updates.

        A transaction is only as trustworthy as its least trusted update —
        accepting it applies every update atomically.
        """
        priorities = [self.priority_for_update(update, schema) for update in updates]
        if not priorities:
            return 0
        return min(priorities)

    def trusts_peer(self, peer: str) -> bool:
        """Does this policy assign the peer's plain updates a positive priority?"""
        if peer == self.owner:
            return True
        for condition in self.conditions:
            if condition.origin_peer == peer and condition.relation is None and condition.predicate is None:
                return condition.priority > 0
        if peer in self.peer_priorities:
            return self.peer_priorities[peer] > 0
        return self.default_priority > 0

    def trusted_peers(self, all_peers: Iterable[str]) -> set[str]:
        return {peer for peer in all_peers if self.trusts_peer(peer)}

    def priorities_by_peer(self, all_peers: Iterable[str]) -> dict[str, int]:
        """The priority each peer's plain updates receive under this policy.

        Mirrors :meth:`trusts_peer` but keeps the magnitude, which is what
        semiring-valued trust questions need: assigned to each base variable
        through its publishing peer, the returned table turns a stored
        provenance graph into, e.g., tropical costs (cheapest trusted
        derivation) or counting weights — evaluated once per shared
        sub-derivation on the graph.
        """
        priorities: dict[str, int] = {}
        for peer in all_peers:
            if peer == self.owner:
                priorities[peer] = self.own_priority
                continue
            priority = None
            for condition in self.conditions:
                if (
                    condition.origin_peer == peer
                    and condition.relation is None
                    and condition.predicate is None
                ):
                    priority = condition.priority
                    break
            if priority is None:
                priority = self.peer_priorities.get(peer, self.default_priority)
            priorities[peer] = priority
        return priorities

    def describe(self) -> str:
        lines = [f"Trust policy of {self.owner}:"]
        for condition in self.conditions:
            lines.append(f"  - {condition}")
        for peer, priority in sorted(self.peer_priorities.items()):
            lines.append(f"  - updates from {peer} -> priority {priority}")
        lines.append(f"  - anything else -> priority {self.default_priority}")
        return "\n".join(lines)
