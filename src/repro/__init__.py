"""repro — a reproduction of ORCHESTRA, the collaborative data sharing system.

ORCHESTRA (Green, Karvounarakis, Taylor, Biton, Ives, Tannen; SIGMOD 2007)
implements the *Collaborative Data Sharing System* (CDSS) model: loosely
coupled peers with autonomous local databases exchange tuple-level updates
through declarative schema mappings, with provenance-aware translation and
trust-based reconciliation of conflicting, transactional updates.

Quick start — describe the network declaratively, then let ``sync()``
orchestrate publication and reconciliation until quiescence::

    from repro import CDSS

    cdss = CDSS.from_spec('''
        peer Source
          relation R(key, value) key(key)
        peer Target
          relation R(key, value) key(key)
        mapping [M_ST] @Target.R(k, v) :- @Source.R(k, v).
    ''')

    cdss.peer("Source").insert("R", (1, "hello"))
    report = cdss.sync()          # publish + reconcile everywhere
    assert (1, "hello") in cdss.peer("Target").tuples("R")
    assert report.converged and not report.skipped_offline

    # Ad-hoc datalog over a peer's instance, optionally with provenance.
    rows = cdss.query("Target", "Answer(v) :- R(k, v).")

The same network can be built fluently (:class:`repro.api.NetworkBuilder`)
or imperatively — the original ``add_peer``/``add_mapping``/``publish``/
``reconcile`` facade remains fully supported and is what the declarative
layer composes::

    from repro import CDSS, PeerSchema
    from repro.core.mapping import mapping_from_tgd

    cdss = CDSS()
    cdss.add_peer("Source", PeerSchema.build("S", {"R": ["a", "b"]}))
    cdss.add_peer("Target", PeerSchema.build("T", {"R": ["a", "b"]}))
    cdss.add_mapping(mapping_from_tgd("[M] @Target.R(a, b) :- @Source.R(a, b)."))
    cdss.publish("Source")
    cdss.reconcile("Target")

The ready-made Figure-2 bioinformatics network (written as the declarative
spec :data:`repro.workloads.FIGURE2_SPEC`) and the five demonstration
scenarios live in :mod:`repro.workloads`.
"""

from .analysis import (
    Diagnostic,
    DiagnosticReport,
    analyze_network_spec,
    analyze_program,
    analyze_system,
)
from .api import (
    NetworkBuilder,
    NetworkSpec,
    PeerSpec,
    QueryResult,
    SyncReport,
    SyncRound,
    parse_network_spec,
)
from .config import (
    ExchangeConfig,
    ObserveConfig,
    StoreConfig,
    SyncConfig,
    SystemConfig,
)
from .core.catalog import Catalog
from .core.mapping import (
    Mapping,
    identity_mapping,
    join_mapping,
    mapping_from_tgd,
    mapping_to_tgd,
    split_mapping,
)
from .core.peer import Peer
from .core.schema import PeerSchema, RelationSchema
from .core.system import CDSS, PublishAllOutcome, PublishOutcome, ReconcileOutcome
from .core.transactions import Transaction, TransactionBuilder
from .core.trust import TrustCondition, TrustPolicy
from .core.updates import Update, UpdateKind
from .errors import ReproError, SpecError, SyncError

__version__ = "1.2.0"

__all__ = [
    "CDSS",
    "Catalog",
    "Diagnostic",
    "DiagnosticReport",
    "ExchangeConfig",
    "Mapping",
    "NetworkBuilder",
    "NetworkSpec",
    "ObserveConfig",
    "Peer",
    "PeerSchema",
    "PeerSpec",
    "PublishAllOutcome",
    "PublishOutcome",
    "QueryResult",
    "ReconcileOutcome",
    "RelationSchema",
    "ReproError",
    "SpecError",
    "StoreConfig",
    "SyncConfig",
    "SyncError",
    "SyncReport",
    "SyncRound",
    "SystemConfig",
    "Transaction",
    "TransactionBuilder",
    "TrustCondition",
    "TrustPolicy",
    "Update",
    "UpdateKind",
    "__version__",
    "analyze_network_spec",
    "analyze_program",
    "analyze_system",
    "identity_mapping",
    "join_mapping",
    "mapping_from_tgd",
    "mapping_to_tgd",
    "parse_network_spec",
    "split_mapping",
]
