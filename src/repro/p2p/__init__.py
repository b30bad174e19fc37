"""Peer-to-peer substrate for the published-update archive.

Figure 1 of the paper stores published transactions in a peer-to-peer
distributed database so that a peer's updates remain retrievable after it
disconnects.  This package provides that substrate:

* :mod:`repro.p2p.store` — the centralized, append-only archive of published
  transactions, and :class:`EpochLog`, the one entry set (epoch order,
  indexes, count/checksum summary) behind the archive, the gossip caches
  and the shard replicas,
* :mod:`repro.p2p.network` — per-peer connectivity (peers are intermittently
  connected; offline peers can neither publish nor reconcile), with
  listeners and churn statistics,
* :mod:`repro.p2p.distributed` — the sharded, k-way-replicated distributed
  archive: consistent hashing of epoch-ordered log segments onto peer-hosted
  shard servers, quorum reads/writes, re-replication, and gossip-based
  catch-up for reconnecting peers,
* :mod:`repro.p2p.sketch` — process-stable content digests, invertible
  Bloom lookup tables and the compact set summary for set reconciliation,
* :mod:`repro.p2p.reconcile` — the challenge → sketch → diff → batch
  reconciliation protocol with per-message byte accounting and cursor-replay
  fallback,
* :mod:`repro.p2p.gossip` — the fanout-f epidemic anti-entropy scheduler
  that spreads published transactions peer-to-peer.
"""

from .distributed import (
    ConsistentHashRing,
    DistributedUpdateStore,
    ShardReplica,
    store_from_config,
)
from .gossip import GossipCoordinator, GossipReport
from .network import ConnectivityEvent, Network
from .reconcile import (
    EntryCache,
    SessionResult,
    SetReconciler,
    StoreView,
    cursor_transfer_bytes,
)
from .sketch import (
    CompactClock,
    IBLTSketch,
    entry_digest,
    entry_wire_size,
    transaction_digest,
)
from .store import EpochLog, PublishedTransaction, UpdateStore

__all__ = [
    "CompactClock",
    "ConnectivityEvent",
    "ConsistentHashRing",
    "DistributedUpdateStore",
    "EntryCache",
    "EpochLog",
    "GossipCoordinator",
    "GossipReport",
    "IBLTSketch",
    "Network",
    "PublishedTransaction",
    "SessionResult",
    "SetReconciler",
    "ShardReplica",
    "StoreView",
    "UpdateStore",
    "cursor_transfer_bytes",
    "entry_digest",
    "entry_wire_size",
    "store_from_config",
    "transaction_digest",
]
