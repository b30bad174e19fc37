"""Assigning trust priorities to transaction groups.

The priority of a group is the priority its *candidate* transaction receives
from the reconciling peer's trust policy: the minimum over the candidate's
translated updates (a transaction is only as trusted as its least trusted
update).  Antecedents pulled into the group do not lower the priority — this
is what lets Crete accept Beijing's trusted modification together with its
untrusted Alaska antecedent in Scenario 3 of the demonstration.

Optionally, trust can additionally be evaluated over provenance: when a
provenance graph is supplied, an update whose tuple is not derivable from any
trusted peer's published data gets priority 0 even if its origin would have
been trusted (defence against relayed data).
"""

from __future__ import annotations

from typing import Container, Optional

from ..core.schema import PeerSchema
from ..core.trust import TrustPolicy
from ..provenance.graph import ProvenanceGraph
from .candidates import TransactionGroup


def group_priority(
    group: TransactionGroup,
    policy: TrustPolicy,
    schema: PeerSchema,
    provenance: Optional[ProvenanceGraph] = None,
    trusted_peers: Optional[set[str]] = None,
) -> int:
    """Compute and return the priority of a group (also stored on the group)."""
    priority = policy.priority_for_updates(group.candidate.updates, schema)
    if priority > 0 and provenance is not None and trusted_peers is not None:
        if not _supported_by_trusted_peers(group, provenance, _PublishedBy(trusted_peers)):
            priority = 0
    group.priority = priority
    return priority


def _supported_by_trusted_peers(
    group: TransactionGroup,
    provenance: ProvenanceGraph,
    trusted_variables: Container[str],
) -> bool:
    """Is every inserted tuple of the candidate derivable from trusted data?

    Deletions are not checked: removing data never requires trusting its
    content.  Each check evaluates the tuple's upstream cone in the boolean
    semiring, so its cost follows the tuple's provenance, not the graph.
    """
    target = group.candidate.target_peer
    for update in group.candidate.updates:
        for values in update.inserted_tuples():
            relation = f"{target}.{update.relation}"
            node = provenance.node(relation, values)
            if node is None:
                continue
            if not provenance.is_derivable(relation, values, trusted_variables):
                return False
    return True


class _PublishedBy:
    """The provenance variables published by ``peers``, as a container.

    Base provenance variables are named after published relations
    (``Peer.R!pub(values)``), so a variable's publishing peer is the prefix
    of its name before the first dot.
    """

    __slots__ = ("_peers",)

    def __init__(self, peers: set[str]) -> None:
        self._peers = peers

    def __contains__(self, variable: str) -> bool:
        return variable.partition(".")[0] in self._peers
