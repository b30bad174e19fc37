"""The CDSS data model: the paper's primary contribution.

This package defines the vocabulary of the Collaborative Data Sharing System:

* :mod:`repro.core.schema` — relation and peer schemas,
* :mod:`repro.core.tuples` — tuple helpers and labelled nulls,
* :mod:`repro.core.mapping` — declarative schema mappings (tgds),
* :mod:`repro.core.updates` — tuple-level insert/delete/modify updates,
* :mod:`repro.core.transactions` — transactions and antecedent dependencies,
* :mod:`repro.core.clock` — the logical clock advanced by update exchange,
* :mod:`repro.core.trust` — trust conditions over content and provenance,
* :mod:`repro.core.peer` — peer state (schema, instance, log, trust policy),
* :mod:`repro.core.catalog` — the catalogue of peers and mappings,
* :mod:`repro.core.system` — the CDSS facade tying publication, update
  exchange and reconciliation together.
"""

from .catalog import Catalog
from .clock import LogicalClock
from .mapping import Mapping, identity_mapping, join_mapping, split_mapping
from .peer import Peer
from .schema import PeerSchema, RelationSchema
from .system import CDSS, ReconcileOutcome
from .transactions import Transaction, TransactionBuilder
from .trust import TrustCondition, TrustPolicy
from .updates import Update, UpdateKind

__all__ = [
    "CDSS",
    "Catalog",
    "LogicalClock",
    "Mapping",
    "Peer",
    "PeerSchema",
    "ReconcileOutcome",
    "RelationSchema",
    "Transaction",
    "TransactionBuilder",
    "TrustCondition",
    "TrustPolicy",
    "Update",
    "UpdateKind",
    "identity_mapping",
    "join_mapping",
    "split_mapping",
]
