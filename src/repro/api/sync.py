"""One-call synchronization of the whole network.

``cdss.sync()`` replaces the hand-rolled publish/reconcile loops of the
examples and benchmarks: it repeatedly runs *rounds* — every online peer
publishes its pending transactions, then every online peer reconciles —
until a round observes nothing new (quiescence).  Offline peers are skipped
and reported, never silently dropped; deferred conflicts do not block
quiescence (they await the administrator) but are surfaced per peer in the
returned :class:`SyncReport`.

When the system runs in gossip sync mode (``SyncConfig.mode ==
"gossip"``), each round inserts an epidemic anti-entropy phase between the
publish and reconcile passes: freshly published entries spread peer-to-peer
via sketch reconciliation sessions (:mod:`repro.p2p.gossip`) so the
reconcile pass answers "what did I miss" from each peer's local cache.
:attr:`SyncReport.gossip` then carries the phase's traffic accounting —
rounds, sessions, messages, bytes, decode failures, fallbacks.

With a latency model attached to the network, the loop prices each publish
uplink and reconcile downlink on the virtual clock, one after another, and
records them as :class:`Transfer` rows of the round.
:meth:`SyncReport.pipelined` replays those rows as overlapped traffic under
admission control (:mod:`repro.api.pipeline`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import PeerError, SyncError
from ..obs import NULL_SPAN as _NO_SPAN
from ..p2p.network import LatencyModel
from .pipeline import pipelined

#: Rounds after which :func:`synchronize` gives up and raises SyncError.
DEFAULT_MAX_ROUNDS = 25


def metrics_enabled(cdss) -> bool:
    """True when reports should carry the per-run metrics view."""
    obs = getattr(cdss, "obs", None)
    if obs is None:
        return False
    if obs.tracer is not None:
        return True
    config = getattr(cdss, "config", None)
    return config is not None and config.observe.mode != "off"


@dataclass
class Transfer:
    """One message the round priced on the virtual clock.

    A publish uplink also names the replica hosts of its epoch's shard, as
    they stood at round end (empty on the centralized store): the hosts its
    publication fans out to in the pipelined schedule.
    """

    sender: str
    receiver: str
    kind: str
    size: int
    fanout: tuple[str, ...] = ()


@dataclass
class SyncRound:
    """One publish-then-reconcile pass over the selected peers."""

    index: int
    published: list = field(default_factory=list)  # list[PublishOutcome]
    reconciled: list = field(default_factory=list)  # list[ReconcileOutcome]
    skipped_offline: list[str] = field(default_factory=list)
    #: Priced transfers, uplinks then downlinks (empty without a latency
    #: model); not part of :meth:`to_dict`.
    transfers: list[Transfer] = field(default_factory=list, repr=False)

    @property
    def published_transactions(self) -> int:
        return sum(len(outcome.published) for outcome in self.published)

    @property
    def translated_changes(self) -> int:
        return sum(outcome.translated_changes for outcome in self.published)

    @property
    def candidates_considered(self) -> int:
        return sum(outcome.candidates_considered for outcome in self.reconciled)

    def is_quiescent(self) -> bool:
        """True when the round neither published nor translated anything new."""
        return self.published_transactions == 0 and self.candidates_considered == 0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "published": [outcome.to_dict() for outcome in self.published],
            "reconciled": [outcome.to_dict() for outcome in self.reconciled],
            "skipped_offline": list(self.skipped_offline),
            "published_transactions": self.published_transactions,
            "translated_changes": self.translated_changes,
            "candidates_considered": self.candidates_considered,
            "quiescent": self.is_quiescent(),
        }


@dataclass
class SyncReport:
    """Structured, serializable outcome of one :func:`synchronize` call."""

    peers: list[str]
    rounds: list[SyncRound] = field(default_factory=list)
    converged: bool = False
    #: Per-peer count of conflicts still awaiting the administrator.
    open_conflicts: dict[str, int] = field(default_factory=dict)
    #: Shard/replica health of a distributed update store (``None`` for the
    #: centralized archive): replication status, degraded writes, repairs.
    store_health: Optional[dict] = None
    #: Gossip anti-entropy traffic accounting (``None`` in cursor mode):
    #: epidemic rounds run, sessions, messages, bytes (split into sketch and
    #: entry bytes), entries delivered, decode failures, cursor fallbacks.
    gossip: Optional[dict] = None
    #: Per-run view of the shared metrics registry (:mod:`repro.obs`):
    #: counters moved during this sync, and the current min/max of each
    #: histogram, under stable dotted names.  ``None`` unless ``config.observe.mode`` is
    #: ``"metrics"``/``"trace"`` or a tracer was installed via
    #: ``cdss.sync(trace=...)``.
    metrics: Optional[dict] = None
    #: The network's latency model and its per-link sequence counters when
    #: the sync began: what :meth:`pipelined` redraws delays from.
    latency: Optional[LatencyModel] = field(default=None, repr=False)
    link_sequences: dict = field(default_factory=dict, repr=False)

    # -- aggregate views ------------------------------------------------------
    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def published_transactions(self) -> int:
        return sum(round_.published_transactions for round_ in self.rounds)

    @property
    def translated_changes(self) -> int:
        return sum(round_.translated_changes for round_ in self.rounds)

    @property
    def skipped_offline(self) -> list[str]:
        """Peers that were offline during at least one round (deduplicated)."""
        seen: set[str] = set()
        ordered: list[str] = []
        for round_ in self.rounds:
            for peer in round_.skipped_offline:
                if peer not in seen:
                    seen.add(peer)
                    ordered.append(peer)
        return ordered

    def _decisions(self, peer: str, attribute: str) -> list[str]:
        # Set-backed dedup in first-seen order: long campaigns accumulate
        # thousands of ids, where the old ``id not in list`` scan was O(n²).
        seen: set[str] = set()
        collected: list[str] = []
        for round_ in self.rounds:
            for outcome in round_.reconciled:
                if outcome.peer == peer:
                    for txn_id in getattr(outcome, attribute):
                        if txn_id not in seen:
                            seen.add(txn_id)
                            collected.append(txn_id)
        return collected

    def accepted(self, peer: str) -> list[str]:
        """Transaction ids the peer accepted during this sync (any round)."""
        return self._decisions(peer, "accepted")

    def rejected(self, peer: str) -> list[str]:
        return self._decisions(peer, "rejected")

    def deferred(self, peer: str) -> list[str]:
        return self._decisions(peer, "deferred")

    def pending(self, peer: str) -> list[str]:
        """Transactions still undecided at the peer after the final round."""
        for round_ in reversed(self.rounds):
            for outcome in round_.reconciled:
                if outcome.peer == peer:
                    return list(outcome.pending)
        return []

    def decision_summary(self, peer: str) -> dict[str, int]:
        return {
            "accepted": len(self.accepted(peer)),
            "rejected": len(self.rejected(peer)),
            "deferred": len(self.deferred(peer)),
            "pending": len(self.pending(peer)),
            "open_conflicts": self.open_conflicts.get(peer, 0),
        }

    #: ``report.pipelined(workers=8, queue_depth=4)``: this sync's traffic
    #: replayed as a pipeline (:func:`repro.api.pipeline.pipelined`).
    pipelined = pipelined

    def to_dict(self) -> dict:
        data = {
            "peers": list(self.peers),
            "rounds": [round_.to_dict() for round_ in self.rounds],
            "round_count": self.round_count,
            "converged": self.converged,
            "published_transactions": self.published_transactions,
            "translated_changes": self.translated_changes,
            "skipped_offline": self.skipped_offline,
            "open_conflicts": dict(self.open_conflicts),
            "decisions": {peer: self.decision_summary(peer) for peer in self.peers},
        }
        if self.store_health is not None:
            data["store_health"] = self.store_health
        if self.gossip is not None:
            data["gossip"] = dict(self.gossip)
        if self.metrics is not None:
            data["metrics"] = dict(self.metrics)
        return data


def _selected_peers(cdss, peers: Optional[Sequence[str]]) -> list[str]:
    names = list(peers) if peers is not None else cdss.catalog.peer_names()
    if not names:
        raise SyncError("there are no peers to synchronize")
    for name in names:
        if not cdss.catalog.has_peer(name):
            raise PeerError(f"unknown peer {name!r}")
    return names


#: Nominal wire size of one transaction, used by the latency model to price
#: publish uplinks and reconcile downlinks.
TXN_WIRE_BYTES = 512


def _price(cdss, round_: SyncRound, transfer: Transfer) -> None:
    """Charge one transfer to the network's latency model and record it.

    The serial loop transmits sequentially, so each transfer advances the
    virtual clock by its full delay.  Without a latency model nothing moves.
    """
    if cdss.network.latency is not None:
        cdss.network.transmit(transfer.sender, transfer.receiver, transfer.kind, transfer.size)
        round_.transfers.append(transfer)


def _account_publish_traffic(cdss, round_: SyncRound) -> None:
    """The round's publish uplinks, one per non-empty publication."""
    for outcome in round_.published:
        if outcome.published:
            size = TXN_WIRE_BYTES * len(outcome.published)
            _price(cdss, round_, Transfer(outcome.peer, "archive", "publish-uplink", size))


def _account_reconcile_traffic(cdss, round_: SyncRound, outcome) -> None:
    """One peer's reconcile downlink."""
    if outcome.candidates_considered:
        size = TXN_WIRE_BYTES * outcome.candidates_considered
        _price(cdss, round_, Transfer("archive", outcome.peer, "entries-downlink", size))


def _resolve_fanouts(store, round_: SyncRound) -> None:
    """Name each uplink's replica hosts as they stand at round end."""
    shard_of_epoch = getattr(store, "shard_of_epoch", None)
    if shard_of_epoch is None:
        return
    # Uplinks lead the list, one per non-empty publication, in order.
    publications = (outcome for outcome in round_.published if outcome.published)
    for transfer, outcome in zip(round_.transfers, publications):
        transfer.fanout = tuple(store.replica_hosts(shard_of_epoch(outcome.epoch)))


def sync_round(cdss, peers: Optional[Sequence[str]] = None, index: int = 1) -> SyncRound:
    """Run one publish-then-reconcile pass over the selected (online) peers."""
    return _run_round(cdss, _selected_peers(cdss, peers), index)


def _run_round(cdss, names: list[str], index: int) -> SyncRound:
    """:func:`sync_round` over peer names that are already validated."""
    round_ = SyncRound(index=index)
    obs = getattr(cdss, "obs", None)
    with obs.span("sync.round", index=index) if obs is not None else _NO_SPAN:
        publish = cdss.publish_all(names)
        round_.published = publish.outcomes
        round_.skipped_offline = publish.skipped_offline
        _account_publish_traffic(cdss, round_)
        gossip = getattr(cdss, "gossip", None)
        if gossip is not None and round_.published_transactions > 0:
            # Epidemic anti-entropy phase: spread the round's publications
            # peer-to-peer before anyone reconciles, so the reconcile pass
            # below reads from converged local caches instead of the
            # archive.  With nothing published there is nothing to spread —
            # reconcile's own catch-up covers any stragglers — so the
            # quiescent final round skips the session fan-out entirely
            # instead of burning a full sketch exchange per partner just to
            # confirm emptiness.
            gossip.run_until_converged()
        offline = set(publish.skipped_offline)
        for name in names:
            if name not in offline:
                outcome = cdss.reconcile(name)
                round_.reconciled.append(outcome)
                _account_reconcile_traffic(cdss, round_, outcome)
        if round_.transfers:
            _resolve_fanouts(cdss.store, round_)
    if obs is not None:
        obs.metrics.counter_add("sync.rounds", 1)
    return round_


def synchronize(
    cdss,
    peers: Optional[Sequence[str]] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> SyncReport:
    """Publish and reconcile across the network until quiescence.

    Args:
        cdss: The system to synchronize.
        peers: Restrict the sync to these peers (default: every peer).
            Offline peers are skipped and recorded, not treated as errors.
        max_rounds: Safety bound; exceeding it raises :class:`SyncError`
            (a correctly functioning network converges in a handful of
            rounds because reconciliation applies updates directly, without
            creating new publishable transactions).

    Returns:
        A :class:`SyncReport` covering every round, including per-peer
        decisions and conflicts left open for the administrator.
    """
    names = _selected_peers(cdss, peers)
    report = SyncReport(
        peers=names, latency=cdss.network.latency, link_sequences=cdss.network.link_sequences()
    )
    gossip = getattr(cdss, "gossip", None)
    gossip_before = gossip.summary() if gossip is not None else None
    metrics_before = cdss.obs.metrics.snapshot() if metrics_enabled(cdss) else None
    for index in range(1, max_rounds + 1):
        round_ = _run_round(cdss, names, index)
        report.rounds.append(round_)
        if round_.is_quiescent():
            report.converged = True
            break
    else:
        finalize_report(cdss, report, gossip_before, metrics_before)
        raise SyncError(
            f"synchronization did not reach quiescence within {max_rounds} rounds",
            report=report,
        )
    finalize_report(cdss, report, gossip_before, metrics_before)
    return report


def finalize_report(cdss, report: SyncReport, gossip_before, metrics_before) -> SyncReport:
    """Fill in the post-loop sections of a report (conflicts, health, gossip).

    Shared by the convergent and non-convergent exits of :func:`synchronize`
    (the latter attaches the finalized partial report to the raised
    :class:`SyncError`).
    """
    report.open_conflicts = {
        name: len(cdss.open_conflicts(name)) for name in report.peers
    }
    health = getattr(cdss.store, "health", None)
    if callable(health):
        report.store_health = health()
    gossip = getattr(cdss, "gossip", None)
    if gossip is not None:
        sync_config = cdss.config.sync
        report.gossip = {
            "mode": "gossip",
            "sketch": sync_config.sketch,
            "fanout": sync_config.gossip_fanout,
        }
        report.gossip.update(gossip.summary(since=gossip_before))
    if metrics_before is not None and metrics_enabled(cdss):
        report.metrics = cdss.obs.metrics.since(metrics_before)
    return report
