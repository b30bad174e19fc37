"""Sharded, k-way-replicated distributed update store.

The paper's CDSS keeps published transactions in a *peer-to-peer update
store*: the archive is partitioned and replicated across the participants
themselves, so updates stay retrievable while their publishers are
disconnected.  This module is that availability layer.
:class:`DistributedUpdateStore` presents the exact
:class:`~repro.p2p.store.UpdateStore` API the rest of the system consumes,
but physically partitions the epoch-ordered log:

* **Placement** — the log is cut into epoch-ordered *segments* of
  ``segment_size`` epochs; each segment is mapped onto one of ``shard_count``
  shards by consistent hashing (:class:`ConsistentHashRing`), and each shard
  is hosted as :class:`ShardReplica` copies on ``replication_factor`` peers
  chosen by rendezvous hashing among the registered participants.  A
  replica is an :class:`~repro.p2p.store.EpochLog`, the package's one
  entry set, plus its host.
* **Writes** — ``archive`` validates the whole batch atomically (the same
  contract as the centralized store), then sends every entry to **all**
  reachable replicas of its shard.  Success requires at least one ack;
  landing fewer than ``write_quorum`` acks is recorded as a *degraded
  write* in :meth:`DistributedUpdateStore.health` rather than refused, so a
  mostly-offline network keeps the availability profile of the centralized
  archive (Dynamo-style sloppy quorum; anti-entropy repairs the missing
  copies later).
* **Quorum reads** — ``published_since`` performs a per-shard quorum read:
  the ``read_quorum`` most complete reachable replicas of every shard are
  consulted, their epoch-bisected tails unioned (a stale quorum member
  cannot hide entries a fresher one holds), and the per-shard results merged
  back into the canonical total order by global sequence number.
* **Churn tolerance** — the store subscribes to
  :class:`~repro.p2p.network.Network` connectivity events.  When a hosting
  peer disconnects, a re-replication pass copies the shard from a surviving
  replica onto the best-ranked online peer, restoring the replication
  factor.  When a peer reconnects, an anti-entropy round compares the
  shard replicas' compact clocks (count and checksum of their entry
  digests) and, where they disagree, copies each replica the entries it
  lacks; fully caught-up surplus replicas are then pruned back to the
  replication factor.

Repairs, anti-entropy rounds, entries copied and degraded writes are
counted in the metrics registry where they happen (``store.*`` counters);
:meth:`DistributedUpdateStore.health` only reads them.

Because writes fan out to every reachable replica (not just a quorum),
losing up to ``replication_factor - 1`` replicas of a shard never loses a
published transaction, and sequential churn with repair in between never
degrades below the replication factor while enough peers remain online.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Iterable, Optional

from ..core.hashing import stable_text_hash
from ..core.transactions import Transaction
from ..errors import ConfigurationError, PublicationError, QuorumError
from .network import ConnectivityEvent, Network
from .store import (
    EpochLog,
    PublishedTransaction,
    UpdateStore,
    validate_publication_batch,
)

# Placement hashing must be identical across processes and releases: shard
# routing is the shared stable-text digest (SHA-256 prefix), kept verbatim
# in repro.core.hashing.
_hash = stable_text_hash

#: The counters :meth:`DistributedUpdateStore.health` reports, under its
#: field names.
_HEALTH_SERIES = (
    ("degraded_writes", "store.quorum.degraded_writes"),
    ("re_replications", "store.replication.repairs"),
    ("anti_entropy_rounds", "store.anti_entropy.rounds"),
    ("entries_transferred", "store.anti_entropy.entries_transferred"),
)


class ConsistentHashRing:
    """Maps epoch-ordered log segments onto shards via consistent hashing.

    Each shard contributes ``points`` virtual nodes to the ring; a segment
    hashes to a position and is owned by the next shard clockwise.  The
    mapping is deterministic across processes and replicas (it depends only
    on ``shard_count`` and ``points``), which the differential oracles rely
    on.
    """

    def __init__(self, shard_count: int, points: int = 32) -> None:
        if shard_count < 1:
            raise ConfigurationError("shard_count must be >= 1")
        if points < 1:
            raise ConfigurationError("ring points must be >= 1")
        self._shard_count = shard_count
        ring = sorted(
            (_hash(f"shard:{shard}:{point}"), shard)
            for shard in range(shard_count)
            for point in range(points)
        )
        self._keys = [key for key, _ in ring]
        self._shards = [shard for _, shard in ring]

    @property
    def shard_count(self) -> int:
        return self._shard_count

    def shard_for(self, segment: int) -> int:
        position = bisect_right(self._keys, _hash(f"segment:{segment}"))
        if position == len(self._shards):
            position = 0
        return self._shards[position]


class ShardReplica(EpochLog):
    """One peer-hosted copy of a shard: an :class:`EpochLog` (whose compact
    clock is what anti-entropy compares) plus its host and the anti-entropy
    round it last took part in."""

    def __init__(self, host: str) -> None:
        super().__init__()
        self.host = host
        #: Value of the store's anti-entropy clock when this replica last
        #: took part in a round; the store's health() reports the age.
        self.last_anti_entropy_round = 0


class DistributedUpdateStore:
    """Sharded, replicated archive with the :class:`UpdateStore` interface."""

    def __init__(
        self,
        network: Network,
        *,
        shard_count: int = 4,
        replication_factor: int = 2,
        write_quorum: Optional[int] = None,
        read_quorum: int = 1,
        segment_size: int = 8,
        ring_points: int = 32,
    ) -> None:
        if replication_factor < 1:
            raise ConfigurationError("replication_factor must be >= 1")
        if segment_size < 1:
            raise ConfigurationError("segment_size must be >= 1")
        if write_quorum is None:
            write_quorum = replication_factor // 2 + 1
        if not 1 <= write_quorum <= replication_factor:
            raise ConfigurationError(
                f"write_quorum must lie in [1, replication_factor], got {write_quorum}"
            )
        if not 1 <= read_quorum <= replication_factor:
            raise ConfigurationError(
                f"read_quorum must lie in [1, replication_factor], got {read_quorum}"
            )
        self._network = network
        self._ring = ConsistentHashRing(shard_count, ring_points)
        self._replication_factor = replication_factor
        self._write_quorum = write_quorum
        self._read_quorum = read_quorum
        self._segment_size = segment_size
        self._replicas: dict[int, list[ShardReplica]] = {}
        #: Coordinator-side routing metadata: which sequences were assigned
        #: to each shard (what a complete replica of the shard must hold),
        #: and which transaction ids were ever archived (exact duplicate
        #: detection must not depend on which replicas are reachable).
        self._shard_sequences: dict[int, set[int]] = {}
        #: Newest epoch assigned to each shard: a read whose cursor is at or
        #: past it has nothing to fetch from that shard.
        self._shard_latest_epoch: dict[int, int] = {}
        #: Memo of the pure placement hash ``_rank(shard, peer)``.
        self._ranks: dict[tuple[int, str], int] = {}
        self._ids: set[str] = set()
        self._next_sequence = 0
        self._latest_epoch = 0
        #: Monotone per-shard-pass clock; replicas record its value when they
        #: take part in a round, and health() reports each replica's age.
        self._anti_entropy_clock = 0
        self._generation = 0
        self._obs = network.obs
        #: The health counters' values when this store was built: its share
        #: of a registry that may have counted before it.
        self._registry_baseline = {
            series: self._obs.metrics.counter_value(series)
            for _, series in _HEALTH_SERIES
        }
        network.subscribe(self._on_connectivity)

    # -- knobs -------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return self._ring.shard_count

    @property
    def replication_factor(self) -> int:
        return self._replication_factor

    @property
    def write_quorum(self) -> int:
        return self._write_quorum

    @property
    def read_quorum(self) -> int:
        return self._read_quorum

    @property
    def segment_size(self) -> int:
        return self._segment_size

    @property
    def generation(self) -> int:
        """Bumped by every archive and by everything that can change what a
        read serves: a connectivity change (which replicas are reachable)
        and the re-replication, pruning and anti-entropy it triggers.  Equal
        generations mean a repeated read returns the same entries."""
        return self._generation

    # -- placement ---------------------------------------------------------------
    def _segment_of(self, epoch: int) -> int:
        return (max(epoch, 1) - 1) // self._segment_size

    def shard_of_epoch(self, epoch: int) -> int:
        return self._ring.shard_for(self._segment_of(epoch))

    def _rank(self, shard: int, peer: str) -> int:
        key = (shard, peer)
        rank = self._ranks.get(key)
        if rank is None:
            rank = self._ranks[key] = _hash(f"replica:{shard}:{peer}")
        return rank

    def _reachable(self, replica: ShardReplica) -> bool:
        return self._network.is_online(replica.host)

    def _replica_set(self, shard: int) -> list[ShardReplica]:
        """The shard's replicas, created on first use among online peers."""
        replicas = self._replicas.get(shard)
        if replicas:
            return replicas
        candidates = sorted(self._network.online_peers(), key=lambda p: self._rank(shard, p))
        if not candidates:
            candidates = sorted(self._network.peers(), key=lambda p: self._rank(shard, p))
        hosts = candidates[: self._replication_factor]
        replicas = [ShardReplica(host) for host in hosts]
        self._replicas[shard] = replicas
        return replicas

    def host_shards(self, peer: str) -> list[int]:
        """Shards with a replica hosted on ``peer`` (inspection aid)."""
        return sorted(
            shard
            for shard, replicas in self._replicas.items()
            if any(replica.host == peer for replica in replicas)
        )

    def replica_hosts(self, shard: int) -> list[str]:
        return [replica.host for replica in self._replicas.get(shard, [])]

    # -- churn handling ----------------------------------------------------------
    def _on_connectivity(self, event: ConnectivityEvent) -> None:
        self._generation += 1
        if event.online:
            self._handle_reconnect(event.peer)
        else:
            self._handle_disconnect(event.peer)

    def _handle_disconnect(self, peer: str) -> None:
        """Restore the replication factor of every shard the peer hosted."""
        for shard, replicas in self._replicas.items():
            if any(replica.host == peer for replica in replicas):
                self._repair_shard(shard)

    def _handle_reconnect(self, peer: str) -> None:
        """Catch the returning peer's replicas up, then rebalance.

        Shards the peer hosts run an anti-entropy round (back-filling what
        its replicas missed while offline); every shard is then repaired, so
        replica sets that were created while part of the network was offline
        grow back to the replication factor as capacity returns.
        """
        for shard in sorted(self._replicas):
            if any(replica.host == peer for replica in self._replicas[shard]):
                self._anti_entropy_shard(shard)
            self._repair_shard(shard)

    def _is_complete(self, shard: int, replica: ShardReplica) -> bool:
        # A replica only ever holds entries assigned to its shard (archive
        # writes them there, repair and anti-entropy copy them between the
        # shard's replicas), so holding as many is holding all of them.
        return len(replica) == len(self._shard_sequences.get(shard, ()))

    def _repair_shard(self, shard: int) -> None:
        """Re-replicate from surviving copies until enough replicas are online."""
        replicas = self._replicas.get(shard)
        if not replicas:
            return
        online = [replica for replica in replicas if self._reachable(replica)]
        target = min(self._replication_factor, len(self._network.online_peers()))
        if len(online) >= target:
            self._prune_shard(shard)
            return
        donor = max(online, key=len, default=None)
        if donor is None:
            # Every holder is offline: nothing to copy from. The data is not
            # lost — the offline replicas keep their logs — but the shard is
            # unreachable until one of them reconnects.
            return
        hosts = {replica.host for replica in replicas}
        candidates = sorted(
            self._network.online_peers() - hosts,
            key=lambda peer: self._rank(shard, peer),
        )
        added = [ShardReplica(peer) for peer in candidates[: target - len(online)]]
        for replica in added:
            for entry in donor:
                replica.add(entry)
            # A freshly copied replica is as caught-up as a round would make it.
            replica.last_anti_entropy_round = self._anti_entropy_clock
        if added:
            replicas.extend(added)
            self._obs.metrics.counters_add(
                ("store.replication.repairs", "store.anti_entropy.entries_transferred"),
                (len(added), len(added) * len(donor)),
            )
        self._prune_shard(shard)

    def _prune_shard(self, shard: int) -> None:
        """Trim surplus replicas once enough complete online copies exist.

        Only replicas whose every entry is already held by the kept set are
        dropped, so pruning can never reduce any transaction's copy count
        below the replication factor.
        """
        replicas = self._replicas.get(shard, [])
        if len(replicas) <= self._replication_factor:
            return
        complete_online = [
            replica
            for replica in replicas
            if self._reachable(replica) and self._is_complete(shard, replica)
        ]
        if len(complete_online) < self._replication_factor:
            return
        keep = sorted(
            complete_online, key=lambda replica: self._rank(shard, replica.host)
        )[: self._replication_factor]
        self._replicas[shard] = keep

    # -- anti-entropy ------------------------------------------------------------
    def _anti_entropy_shard(self, shard: int) -> int:
        """One gossip round among the shard's reachable replicas.

        Replicas first exchange their compact clocks (24 bytes each: count
        and XOR checksum of their entry digests), which also catch
        same-count divergence (interior holes).  Only when those disagree
        does any entry move: every replica is given the entries of the union
        it lacks.  Returns the number of entries transferred.
        """
        self._anti_entropy_clock += 1
        replicas = [
            replica
            for replica in self._replicas.get(shard, [])
            if self._reachable(replica)
        ]
        for replica in replicas:
            replica.last_anti_entropy_round = self._anti_entropy_clock
        if len(replicas) < 2:
            return 0
        clocks = [replica.compact_clock() for replica in replicas]
        if all(clock.agrees_with(clocks[0]) for clock in clocks[1:]):
            return 0
        union = EpochLog()
        for replica in replicas:
            for entry in replica:
                union.add(entry)
        transferred = 0
        for replica in replicas:
            for entry in union:
                transferred += replica.add(entry)
        self._obs.metrics.counter_add("store.anti_entropy.entries_transferred", transferred)
        return transferred

    def anti_entropy(self) -> int:
        """Run a gossip round over every shard; returns entries transferred."""
        self._obs.metrics.counter_add("store.anti_entropy.rounds", 1)
        self._generation += 1
        return sum(
            self._anti_entropy_shard(shard) for shard in sorted(self._replicas)
        )

    # -- publication -------------------------------------------------------------
    def archive(
        self, transactions: Iterable[Transaction], epoch: int, publisher: str
    ) -> list[PublishedTransaction]:
        """Archive a batch, writing every entry to all reachable shard replicas.

        The batch is validated as a whole before any replica is touched, so
        publication stays atomic.  Fewer than ``write_quorum`` acks is a
        degraded (but successful) write; zero reachable replicas raises
        :class:`~repro.errors.QuorumError`.
        """
        batch = list(transactions)
        validate_publication_batch(
            batch, epoch, publisher, self._latest_epoch, self._ids.__contains__
        )
        shard = self.shard_of_epoch(epoch)
        metrics = self._obs.metrics
        # Before any replica is touched: a batch that fails part-way with a
        # QuorumError has still changed what reads serve.
        self._generation += 1
        with self._obs.span(
            "store.quorum_write", shard=shard, epoch=epoch, publisher=publisher
        ):
            replicas = self._replica_set(shard)
            if sum(1 for replica in replicas if self._reachable(replica)) < min(
                self._replication_factor, len(self._network.online_peers())
            ):
                self._repair_shard(shard)
                replicas = self._replicas[shard]
            archived = []
            for transaction in batch:
                stamped = transaction.with_epoch(epoch)
                entry = PublishedTransaction(
                    transaction=stamped,
                    epoch=epoch,
                    sequence=self._next_sequence,
                    publisher=publisher,
                )
                acks = 0
                for replica in replicas:
                    if self._reachable(replica) and replica.add(entry):
                        acks += 1
                if acks == 0:
                    raise QuorumError(
                        f"no replica of shard {shard} is reachable; cannot archive "
                        f"transaction {transaction.txn_id!r}"
                    )
                metrics.counter_add("store.quorum.writes", 1)
                if acks < self._write_quorum:
                    metrics.counter_add("store.quorum.degraded_writes", 1)
                self._next_sequence += 1
                self._latest_epoch = max(self._latest_epoch, epoch)
                self._shard_sequences.setdefault(shard, set()).add(entry.sequence)
                self._shard_latest_epoch[shard] = epoch
                self._ids.add(transaction.txn_id)
                archived.append(entry)
        return archived

    # -- quorum reads ------------------------------------------------------------
    def _read_quorum_of(
        self, shard: int, reachable: list[ShardReplica]
    ) -> list[ShardReplica]:
        """The replicas a read consults: the most complete reachable ones
        first, so a freshly re-added (still catching-up) quorum member
        cannot shadow a complete one; placement rank breaks ties."""
        ordered = sorted(
            reachable,
            key=lambda replica: (-len(replica), self._rank(shard, replica.host)),
        )
        return ordered[: self._read_quorum]

    def _read_shard(self, shard: int, epoch: int = -1) -> list[PublishedTransaction]:
        """Quorum read of one shard's entries published after ``epoch``."""
        replicas = self._replicas.get(shard, [])
        if not replicas:
            return []
        reachable = [replica for replica in replicas if self._reachable(replica)]
        if not reachable:
            raise QuorumError(
                f"shard {shard} has no reachable replica "
                f"(hosts: {sorted(replica.host for replica in replicas)})"
            )
        # Only after the reachability check: a wholly unreachable shard must
        # fail the read whatever the cursor, or callers would take silence
        # from a shard they cannot see for "nothing new".
        if epoch >= self._shard_latest_epoch.get(shard, -1):
            return []
        with self._obs.span("store.quorum_read", shard=shard):
            self._obs.metrics.counter_add("store.quorum.reads", 1)
            merged: dict[int, PublishedTransaction] = {}
            for replica in self._read_quorum_of(shard, reachable):
                for entry in replica.since(epoch):
                    merged[entry.sequence] = entry
        return list(merged.values())

    def _read_all_shards(self, epoch: int = -1) -> list[PublishedTransaction]:
        entries: list[PublishedTransaction] = []
        for shard in sorted(self._replicas):
            entries.extend(self._read_shard(shard, epoch))
        entries.sort(key=lambda entry: entry.sequence)
        return entries

    # -- UpdateStore interface ---------------------------------------------------
    def __len__(self) -> int:
        return self._next_sequence

    def all_entries(self) -> list[PublishedTransaction]:
        return self._read_all_shards()

    def transactions(self) -> list[Transaction]:
        return [entry.transaction for entry in self._read_all_shards()]

    def entry(self, txn_id: str) -> PublishedTransaction:
        if txn_id not in self._ids:
            raise PublicationError(f"transaction {txn_id!r} was never published")
        for shard in sorted(self._replicas):
            for replica in self._replicas[shard]:
                if not self._reachable(replica):
                    continue
                found = replica.get(txn_id)
                if found is not None:
                    return found
        raise QuorumError(
            f"transaction {txn_id!r} is archived but every replica holding it "
            "is offline"
        )

    def contains(self, txn_id: str) -> bool:
        """Was the transaction ever archived?  (Exact, like the centralized
        store — independent of which replicas are currently reachable.)"""
        return txn_id in self._ids

    __contains__ = contains

    def retrievable(self, txn_id: str) -> bool:
        """Is the transaction's data reachable on some online replica now?"""
        return any(
            self._reachable(replica) and txn_id in replica
            for replicas in self._replicas.values()
            for replica in replicas
        )

    def published_since(self, epoch: int) -> list[PublishedTransaction]:
        """Quorum read of everything published strictly after ``epoch``."""
        return self._read_all_shards(epoch)

    def latest_epoch(self) -> int:
        return self._latest_epoch

    def antecedents_map(self) -> dict[str, frozenset[str]]:
        return {
            entry.txn_id: entry.transaction.antecedents
            for entry in self._read_all_shards()
        }

    # -- introspection -----------------------------------------------------------
    def under_replicated(self) -> dict[int, list[int]]:
        """``{shard: [sequences]}`` held by fewer copies than the target.

        The target is ``min(replication_factor, registered peers)``; offline
        holders count (their logs persist), so this measures true redundancy,
        not reachability.
        """
        target = min(self._replication_factor, len(self._network.peers()))
        problems: dict[int, list[int]] = {}
        for shard, assigned in self._shard_sequences.items():
            holders = Counter(
                entry.sequence
                for replica in self._replicas.get(shard, [])
                for entry in replica
            )
            short = [sequence for sequence in sorted(assigned) if holders[sequence] < target]
            if short:
                problems[shard] = short
        return problems

    def health(self) -> dict:
        """Shard/replica health for reports and benchmarks.  The event
        counts are this store's share of the registry's ``store.*``
        counters; reading them writes nothing."""
        per_shard = []
        for shard in sorted(self._replicas):
            replicas = self._replicas[shard]
            per_shard.append(
                {
                    "shard": shard,
                    "replicas": len(replicas),
                    "online_replicas": sum(
                        1 for replica in replicas if self._reachable(replica)
                    ),
                    "entries": len(self._shard_sequences.get(shard, ())),
                    "hosts": sorted(replica.host for replica in replicas),
                    # How many shard anti-entropy passes ago each replica
                    # last took part in a round (0 = current).
                    "anti_entropy_age": {
                        replica.host: (
                            self._anti_entropy_clock - replica.last_anti_entropy_round
                        )
                        for replica in sorted(replicas, key=lambda r: r.host)
                    },
                }
            )
        metrics = self._obs.metrics
        return {
            "backend": "distributed",
            "shards": self.shard_count,
            "active_shards": len(self._replicas),
            "replication_factor": self._replication_factor,
            "write_quorum": self._write_quorum,
            "read_quorum": self._read_quorum,
            "segment_size": self._segment_size,
            "transactions": self._next_sequence,
            **{
                name: metrics.counter_value(series) - self._registry_baseline[series]
                for name, series in _HEALTH_SERIES
            },
            "under_replicated_shards": len(self.under_replicated()),
            "per_shard": per_shard,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedUpdateStore({self._next_sequence} transactions, "
            f"{self.shard_count} shards x{self._replication_factor}, "
            f"epoch {self._latest_epoch})"
        )


def store_from_config(network: Network, store_config) -> object:
    """Build the archive selected by a :class:`~repro.config.StoreConfig`.

    ``backend="centralized"`` (the default) returns the plain
    :class:`UpdateStore`; ``backend="distributed"`` wires a
    :class:`DistributedUpdateStore` to the given network.
    """
    backend = getattr(store_config, "backend", "centralized")
    if backend == "distributed":
        return DistributedUpdateStore(
            network,
            shard_count=store_config.shard_count,
            replication_factor=store_config.replication_factor,
            write_quorum=store_config.write_quorum,
            read_quorum=store_config.read_quorum,
            segment_size=store_config.segment_size,
        )
    if backend != "centralized":
        raise ConfigurationError(
            f"unknown store backend {backend!r}; expected 'centralized' or 'distributed'"
        )
    return UpdateStore()
