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

from typing import Optional

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
    trusted_variables: Optional[set[str]] = None,
) -> int:
    """Compute and return the priority of a group (also stored on the group).

    ``trusted_variables`` is :func:`trusted_variable_set` of ``trusted_peers``,
    a scan of the graph's base tuples: a caller ranking many groups computes
    it once and passes it; it is computed here when omitted.
    """
    priority = policy.priority_for_updates(group.candidate.updates, schema)
    if priority > 0 and provenance is not None and trusted_peers is not None:
        if trusted_variables is None:
            trusted_variables = trusted_variable_set(provenance, trusted_peers)
        if not _supported_by_trusted_peers(group, provenance, trusted_variables):
            priority = 0
    group.priority = priority
    return priority


def _supported_by_trusted_peers(
    group: TransactionGroup,
    provenance: ProvenanceGraph,
    trusted_variables: set[str],
) -> bool:
    """Is every inserted tuple of the candidate derivable from trusted data?

    Base provenance variables are named after published relations
    (``Peer.R!pub(values)``), so the set of trusted variables is exactly the
    variables of trusted peers' contributions.  Deletions are not checked:
    removing data never requires trusting its content.

    Derivability is answered on the provenance DAG: repeated checks against
    the same trusted set share one memoized boolean evaluator, so only the
    first question per sub-derivation pays for evaluation.
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


def _variable_peer(published_name: str) -> str:
    """Extract the publishing peer from a published relation name."""
    peer, _, _rest = published_name.partition(".")
    return peer


def trusted_variable_set(
    provenance: ProvenanceGraph, trusted_peers: set[str]
) -> set[str]:
    """All provenance variables contributed by the given peers (one pass over
    the graph's base tuples)."""
    return {
        variable
        for variable, (relation, _values) in provenance.base_variables().items()
        if _variable_peer(relation) in trusted_peers
    }
