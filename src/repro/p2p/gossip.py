"""Fanout-f epidemic anti-entropy over reconciliation sessions.

In cursor mode every peer catches up by pulling its log tail straight from
the archive — N peers, N full cursor replays, all served by one store.  The
gossip scheduler replaces that with epidemic exchange: each round, every
online peer runs a reconciliation session (:mod:`repro.p2p.reconcile`) with
``fanout`` partners chosen deterministically from the online peers plus the
archive itself.  Entries spread peer-to-peer in O(log N) rounds, the store
serves only its share of sessions, and each session moves O(diff) bytes.

Partner choice costs O(fanout) hashing, not O(N): one process-stable hash
of ``(round, peer)`` seeds a chain of ``mix64`` draws, and each draw pops
one candidate from the sorted pool (the archive plus every other online
peer).  The sorted pool and the hash state keyed by the round are built
once per round, so a peer's draw hashes only its own name.  A run is
therefore reproducible across processes and store backends — the
differential oracles rely on gossip making *identical* decisions whether
the archive underneath is centralized or distributed.

The archive side of a session is a mirror refreshed once per store
generation (:meth:`StoreView.refresh`), so a phase that archives nothing
and sees no churn re-reads the store once, not once per catch-up.

The generation also certifies caches.  A phase that ends converged has
proven every online peer's cache equal to the mirror, and so has a
converged catch-up session; the coordinator records the generation of that
proof per peer.  While nothing is archived and no replica comes or goes,
:meth:`GossipCoordinator.catch_up` of a certified peer could only confirm
equality, so it sends nothing.  Any archive or reachability change bumps
the generation and voids every certificate.

Convergence is detected by comparing each online peer's compact clock with
the archive's.  Epidemic spread converges with overwhelming probability,
but the scheduler does not gamble: any round that delivers nothing while
stale peers remain forces those peers through a direct session with the
archive, so :meth:`GossipCoordinator.run_until_converged` terminates within
its round budget deterministically.  Those repair sessions are counted in
the row of the round that needed them, so the rows of a
:class:`GossipReport` add up to its totals.

A round's sessions are accounted together (:meth:`SetReconciler.batched`):
their message rows reach the network in one ``record_messages`` call and
their ``gossip.*``/``sketch.*`` counts reach the registry in one
``counters_add``, when the round ends; its repair sessions are a second
such batch.  Nothing else sends between the sessions of a round, so the
message order and counters are those of one flush per session.  A catch-up
session is accounted on its own, as the sync loop prices other traffic
between catch-ups.  Round rows, phase reports and :meth:`summary` read
those series back (:func:`~repro.p2p.reconcile.session_counts`) before and
after; the registry is the only place the counts live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..core.hashing import mix64, prefix_hasher
from ..errors import SyncError
from .network import Network
from .reconcile import (
    ARCHIVE_NAME,
    EntryCache,
    SessionResult,
    SetReconciler,
    StoreView,
    session_counts,
)
from .store import PublishedTransaction


@dataclass
class GossipReport:
    """What one anti-entropy phase (one ``run_until_converged``) did."""

    rounds: list[dict] = field(default_factory=list)
    converged: bool = True
    #: The phase's session counters (:func:`session_counts`).
    stats: Optional[dict[str, int]] = None

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    def to_dict(self) -> dict:
        payload = {
            "rounds": list(self.rounds),
            "round_count": self.round_count,
            "converged": self.converged,
        }
        if self.stats is not None:
            payload.update(self.stats)
        return payload


class GossipCoordinator:
    """Schedules epidemic reconciliation sessions for a CDSS network."""

    def __init__(
        self,
        network: Network,
        store,
        fanout: int = 2,
        observability=None,
    ) -> None:
        if fanout < 1:
            raise SyncError("gossip fanout must be at least 1")
        self.fanout = fanout
        self._network = network
        self._obs = observability if observability is not None else network.obs
        self._store_view = StoreView(store)
        self._reconciler = SetReconciler(network=network, observability=self._obs)
        self._caches: dict[str, EntryCache] = {}
        self._round = 0
        #: peer -> ``(store generation, cache count)`` at which its cache was
        #: last proven equal to the archive mirror.  Caches only grow, so an
        #: unchanged count means an unchanged cache.
        self._certified: dict[str, tuple[int, int]] = {}
        #: ``(round, online, sorted pool, partner hasher)`` of the round the
        #: last draw was made in.
        self._draw: Optional[tuple[int, list[str], list[str], Callable[[object], int]]] = None

    # -- membership and feeds ----------------------------------------------------
    def register_peer(self, name: str) -> None:
        self._caches.setdefault(name, EntryCache(name))

    def cache(self, name: str) -> EntryCache:
        return self._caches[name]

    def record_published(self, publisher: str, entries: Iterable[PublishedTransaction]) -> None:
        """Seed the publisher's own cache with entries it just archived."""
        if publisher in self._caches:
            self._caches[publisher].add_entries(entries)

    # -- observability -----------------------------------------------------------
    @property
    def rounds_run(self) -> int:
        return self._round

    def summary(self, since: Optional[dict[str, int]] = None) -> dict[str, int]:
        """Rounds run and the session counters (:func:`session_counts`), in
        all or since ``since`` (an earlier summary)."""
        payload = {"rounds": self._round, **session_counts(self._obs.metrics)}
        if since is not None:
            return {name: value - since[name] for name, value in payload.items()}
        return payload

    # -- scheduling --------------------------------------------------------------
    def _online_members(self) -> list[str]:
        return sorted(self._network.online_peers() & self._caches.keys())

    def _partners(self, peer: str, online: list[str]) -> list[str]:
        # One keyed hash per (round, peer); each draw removes its pick from
        # the sorted pool, so the partners are distinct.  The sorted pool
        # and the hash state keyed by the round are built once per round.
        if self._draw is None or self._draw[0] != self._round or self._draw[1] is not online:
            self._draw = (
                self._round,
                online,
                sorted([ARCHIVE_NAME, *online]),
                prefix_hasher(("gossip-partner", self._round)),
            )
        _, _, everyone, hasher = self._draw
        pool = list(everyone)
        if peer in online:
            pool.remove(peer)
        draw = hasher(peer)
        partners = []
        for _ in range(min(self.fanout, len(pool))):
            draw = mix64(draw)
            partners.append(pool.pop(draw % len(pool)))
        return partners

    def _session(self, peer: str, partner: str) -> SessionResult:
        target = self._store_view if partner == ARCHIVE_NAME else self._caches[partner]
        return self._reconciler.reconcile(self._caches[peer], target)

    def _stale_peers(self, online: list[str]) -> list[str]:
        archive_clock = self._store_view.compact_clock()
        return [
            peer
            for peer in online
            if not self._caches[peer].compact_clock().agrees_with(archive_clock)
        ]

    def run_round(self) -> dict:
        """One epidemic round: every online peer sessions with ``fanout``
        deterministically chosen partners.  Returns the round's counters:
        every :func:`session_counts` field, plus ``repair_sessions`` (the
        direct archive sessions :meth:`run_until_converged` folds in)."""
        self._round += 1
        self._store_view.refresh()
        online = self._online_members()
        metrics = self._obs.metrics
        before = session_counts(metrics)
        with self._obs.span(
            "gossip.round", index=self._round, participants=len(online)
        ), self._reconciler.batched():
            for peer in online:
                for partner in self._partners(peer, online):
                    self._session(peer, partner)
        metrics.counter_add("gossip.rounds", 1)
        return {
            "round": self._round,
            "participants": len(online),
            **session_counts(metrics, since=before),
            "repair_sessions": 0,
        }

    def run_until_converged(self, max_rounds: Optional[int] = None) -> GossipReport:
        """Run rounds until every online peer's cache matches the archive.

        The budget defaults to comfortably above the O(log N) epidemic
        expectation; a zero-progress round triggers direct archive sessions
        for the remaining stale peers (counted in that round's row), so the
        budget is never the thing correctness hangs on.  A phase that ends
        converged certifies every online peer at the mirror's generation
        (see :meth:`catch_up`).
        """
        self._store_view.refresh()
        online = self._online_members()
        metrics = self._obs.metrics
        before = session_counts(metrics)
        report = GossipReport()
        if not online:
            report.stats = session_counts(metrics, since=before)
            return report
        if max_rounds is None:
            budget = 8
            population = len(online)
            while population > 1:
                population //= 2
                budget += 4
            max_rounds = budget
        stale = self._stale_peers(online)
        for _ in range(max_rounds):
            if not stale:
                break
            round_info = self.run_round()
            report.rounds.append(round_info)
            stale = self._stale_peers(online)
            if stale and round_info["entries_delivered"] == 0:
                # Deterministic repair: rumor-mongering made no progress, so
                # put every stale peer directly in front of the archive.
                before_repair = session_counts(metrics)
                with self._reconciler.batched():
                    for peer in stale:
                        self._session(peer, ARCHIVE_NAME)
                for name, value in session_counts(metrics, since=before_repair).items():
                    round_info[name] += value
                round_info["repair_sessions"] = len(stale)
                stale = self._stale_peers(online)
        report.converged = not stale
        report.stats = session_counts(metrics, since=before)
        if not report.converged:
            raise SyncError(
                f"gossip anti-entropy failed to converge within {max_rounds} rounds "
                f"(stale: {', '.join(stale)})"
            )
        for peer in online:
            self._certify(peer)
        return report

    # -- catch-up for the reconcile path ----------------------------------------
    def _certify(self, peer: str) -> None:
        """Record that ``peer``'s cache now equals the archive mirror."""
        self._certified[peer] = (self._store_view.generation, len(self._caches[peer]))

    def catch_up(self, peer: str) -> SessionResult:
        """Bring one peer's cache fully up to date with the archive.

        A peer whose cache was proven equal to the mirror (by a converged
        phase or catch-up) at the store generation the refreshed mirror is
        at, and that has gained nothing since, needs no session: nothing
        was archived and no replica came or went, so a challenge exchange
        could only confirm equality.  Its cache is marked complete through
        the mirror's watermark, as that unchanged session would have done,
        and a converged zero-delivery result is returned with nothing sent.
        Any other peer runs a real session, which certifies it when it
        converges.  The mirror is refreshed first either way, so an
        unreachable shard still raises.
        """
        view = self._store_view
        view.refresh()
        cache = self._caches[peer]
        if self._certified.get(peer) == (view.generation, len(cache)):
            cache.mark_complete(view.complete_until)
            return SessionResult(True, 0, 0, 0, False)
        result = self._reconciler.reconcile(cache, view)
        if result.converged:
            self._certify(peer)
        return result

    def entries_since(self, peer: str, epoch: int) -> list[PublishedTransaction]:
        """The peer-local answer to ``store.published_since`` — identical to
        it once :meth:`catch_up` has run (the sketch-vs-cursor oracle checks
        exactly this equivalence end to end)."""
        return self._caches[peer].since(epoch)
