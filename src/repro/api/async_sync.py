"""Pipelined asyncio sync runtime with admission control.

The serial loop in :mod:`repro.api.sync` drives the network one peer at a
time: every transfer occupies the simulated timeline alone, so the virtual
clock advances by the *sum* of all message delays.  This module schedules
the same sync as a pipeline — independent online peers publish and
reconcile concurrently, publish fan-out to distributed-store shard replicas
overlaps with reconciliation downlinks — so the clock advances by the
*critical path* instead.

Three properties anchor the design:

* **Identical reports.**  Compute (epoch assignment, archive appends,
  update exchange, reconciliation decisions) is virtual-instant and runs in
  the exact canonical order of the serial loop, so both runtimes produce
  bit-identical :class:`~repro.api.sync.SyncReport` rounds on the same
  seeds — the property the simulator's concurrent-vs-serial oracle checks.
  Only the simulated *traffic* overlaps.

* **Virtual time, never wall-clock.**  Transfers are awaited on a
  :class:`VirtualTimeEventLoop` whose clock jumps straight to the next
  scheduled timer whenever no callback is ready.  A run over thousands of
  simulated seconds completes in milliseconds of wall time, and identical
  seeds give identical timelines.

* **Admission control.**  A shared worker semaphore caps transfers in
  flight, and each peer owns a bounded :class:`DeliveryQueue`; when a
  flooded peer's queue fills, producers block on ``put`` (a counted
  *backpressure stall*) instead of buffering without limit.

``report.runtime`` carries the scheduler accounting: virtual seconds on
the clock, transfer count, peak in-flight transfers, backpressure stalls,
and the deepest queue observed.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Sequence

from ..errors import SyncError
from .sync import (
    DEFAULT_MAX_ROUNDS,
    TXN_WIRE_BYTES,
    SyncReport,
    SyncRound,
    _selected_peers,
    finalize_report,
    metrics_enabled,
)


class VirtualTimeEventLoop(asyncio.SelectorEventLoop):
    """An event loop whose ``time()`` is simulated and jumps, never sleeps.

    Whenever no callback is ready, the clock fast-forwards to the earliest
    scheduled timer, so ``await asyncio.sleep(delay)`` models a delay of
    simulated seconds at zero wall-clock cost.  Scheduling is single
    threaded and FIFO, which keeps runs deterministic.
    """

    def __init__(self) -> None:
        super().__init__()
        self._virtual_now = 0.0

    def time(self) -> float:
        return self._virtual_now

    def _run_once(self) -> None:
        if not self._ready and self._scheduled:
            when = self._scheduled[0]._when
            if when > self._virtual_now:
                self._virtual_now = when
        elif not self._ready and not self._scheduled and not self._stopping:
            raise RuntimeError(
                "virtual-time deadlock: every task is waiting and no timer "
                "is scheduled to wake any of them"
            )
        super()._run_once()


class DeliveryQueue:
    """Bounded per-peer work queue — the admission-control primitive.

    Wraps :class:`asyncio.Queue` to count backpressure stalls (puts that
    found the queue full and had to wait) and the deepest backlog seen.
    """

    def __init__(self, peer: str, depth: int) -> None:
        self.peer = peer
        self.depth = depth
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=depth)
        self.stalls = 0
        self.max_depth_seen = 0

    async def put(self, item) -> None:
        if self._queue.full():
            self.stalls += 1
        await self._queue.put(item)
        backlog = self._queue.qsize()
        if backlog > self.max_depth_seen:
            self.max_depth_seen = backlog

    async def get(self):
        return await self._queue.get()

    def task_done(self) -> None:
        self._queue.task_done()

    async def join(self) -> None:
        await self._queue.join()


class AsyncSyncRuntime:
    """One ``async_synchronize`` run: rounds of compute plus overlapped I/O.

    Each round performs the canonical publish/gossip/reconcile compute
    exactly as the serial loop would, spawning a transfer task for every
    message the serial loop would have transmitted sequentially.  Transfer
    tasks share the worker semaphore and deliver through the receiving
    peer's bounded queue; the round completes when every transfer it
    spawned has drained.
    """

    def __init__(self, cdss, names: Sequence[str], workers: int, queue_depth: int) -> None:
        self._cdss = cdss
        self._names = list(names)
        self.workers = workers
        self.queue_depth = queue_depth
        self._semaphore = asyncio.Semaphore(workers)
        self._queues = {name: DeliveryQueue(name, queue_depth) for name in self._names}
        self._in_flight = 0
        self.max_in_flight = 0
        self.transfers = 0
        self.virtual_seconds = 0.0

    # -- transfers ------------------------------------------------------------
    async def _transfer(self, sender: str, receiver: str, kind: str, size: int) -> None:
        """One admission-controlled transfer, awaited in virtual time."""
        async with self._semaphore:
            self._in_flight += 1
            if self._in_flight > self.max_in_flight:
                self.max_in_flight = self._in_flight
            self.transfers += 1
            try:
                delay = self._cdss.network.transmit(
                    sender, receiver, kind, size, advance=False
                )
                if delay:
                    await asyncio.sleep(delay)
            finally:
                self._in_flight -= 1

    async def _consume(self, queue: DeliveryQueue) -> None:
        """Drain one peer's delivery queue for the lifetime of the run."""
        while True:
            sender, kind, size = await queue.get()
            try:
                await self._transfer(sender, queue.peer, kind, size)
            finally:
                queue.task_done()

    async def _publish_transfer(self, outcome) -> None:
        """Uplink one peer's publication, then fan out to shard replicas.

        The fan-out deliveries ride each replica host's bounded queue, so a
        flooded host slows the fan-out (backpressure) instead of buffering
        without limit — and they overlap with the reconcile downlinks
        spawned later in the same round.
        """
        size = TXN_WIRE_BYTES * len(outcome.published)
        await self._transfer(outcome.peer, "archive", "publish-uplink", size)
        store = self._cdss.store
        shard_of_epoch = getattr(store, "shard_of_epoch", None)
        replica_hosts = getattr(store, "replica_hosts", None)
        if shard_of_epoch is None or replica_hosts is None:
            return
        for host in replica_hosts(shard_of_epoch(outcome.epoch)):
            if host != outcome.peer and host in self._queues:
                await self._queues[host].put(("archive", "replica-fanout", size))

    async def _reconcile_transfer(self, outcome) -> None:
        """Queue one peer's reconcile downlink through its delivery queue."""
        size = TXN_WIRE_BYTES * outcome.candidates_considered
        await self._queues[outcome.peer].put(("archive", "entries-downlink", size))

    # -- rounds ---------------------------------------------------------------
    async def _run_round(self, index: int) -> SyncRound:
        cdss = self._cdss
        simulate_traffic = cdss.network.latency is not None
        round_ = SyncRound(index=index)
        transfers: list[asyncio.Task] = []

        # Publish compute runs in canonical order (epochs come from the
        # shared clock); each non-empty publication immediately spawns its
        # uplink/fan-out transfer, which overlaps everything that follows.
        publish = cdss.publish_all(self._names)
        round_.published = publish.outcomes
        round_.skipped_offline = publish.skipped_offline
        if simulate_traffic:
            transfers.extend(
                asyncio.ensure_future(self._publish_transfer(outcome))
                for outcome in publish.outcomes
                if outcome.published
            )

        gossip = getattr(cdss, "gossip", None)
        if gossip is not None and round_.published_transactions > 0:
            # Same skip as the serial loop: with nothing published there is
            # nothing to spread, and reconcile's catch-up covers stragglers.
            gossip.run_until_converged()

        offline = set(publish.skipped_offline)
        for name in self._names:
            if name not in offline:
                outcome = cdss.reconcile(name)
                round_.reconciled.append(outcome)
                if simulate_traffic and outcome.candidates_considered:
                    transfers.append(
                        asyncio.ensure_future(self._reconcile_transfer(outcome))
                    )

        if transfers:
            await asyncio.gather(*transfers)
        # Producers are done; wait for every queued delivery to drain so the
        # round's virtual duration covers its whole pipeline.
        await asyncio.gather(*(queue.join() for queue in self._queues.values()))
        return round_

    async def run(self, max_rounds: int) -> tuple[SyncReport, bool]:
        """Run rounds until quiescence; returns (report, converged)."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        report = SyncReport(peers=list(self._names))
        consumers = [
            asyncio.ensure_future(self._consume(queue))
            for queue in self._queues.values()
        ]
        try:
            for index in range(1, max_rounds + 1):
                round_ = await self._run_round(index)
                report.rounds.append(round_)
                if round_.is_quiescent():
                    report.converged = True
                    break
        finally:
            self.virtual_seconds = loop.time() - started
            for consumer in consumers:
                consumer.cancel()
            await asyncio.gather(*consumers, return_exceptions=True)
        return report, report.converged

    def accounting(self) -> dict:
        return {
            "mode": "async",
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "virtual_seconds": self.virtual_seconds,
            "transfers": self.transfers,
            "max_in_flight": self.max_in_flight,
            "backpressure_stalls": sum(q.stalls for q in self._queues.values()),
            "max_queue_depth_seen": max(
                (q.max_depth_seen for q in self._queues.values()), default=0
            ),
        }

    def flush_metrics(self) -> None:
        """Mirror the run's scheduler accounting into the metrics registry.

        The ``sync.runtime.*`` series carries exactly the numbers
        :meth:`accounting` reports (parity is asserted in the tests), so
        :class:`~repro.api.sync.SyncReport.runtime` stays a thin view.
        """
        obs = getattr(self._cdss, "obs", None)
        if obs is None:
            return
        metrics = obs.metrics
        accounting = self.accounting()
        if accounting["transfers"]:
            metrics.counter_add("sync.runtime.transfers", accounting["transfers"])
        if accounting["backpressure_stalls"]:
            metrics.counter_add(
                "sync.runtime.backpressure_stalls", accounting["backpressure_stalls"]
            )
        metrics.gauge_max("sync.runtime.max_in_flight", accounting["max_in_flight"])
        metrics.gauge_max(
            "sync.runtime.max_queue_depth", accounting["max_queue_depth_seen"]
        )
        metrics.gauge_set("sync.runtime.virtual_seconds", accounting["virtual_seconds"])


def async_synchronize(
    cdss,
    peers: Optional[Sequence[str]] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    workers: Optional[int] = None,
    queue_depth: Optional[int] = None,
) -> SyncReport:
    """Publish and reconcile until quiescence on the async runtime.

    Drop-in replacement for :func:`repro.api.sync.synchronize` — same
    arguments, same report contents, same :class:`SyncError` (with the
    partial report attached) on a blown round budget — plus scheduler
    accounting in ``report.runtime``.  ``workers`` and ``queue_depth``
    default to the system's :class:`~repro.config.SyncConfig`.

    The network's virtual clock advances by the run's *overlapped* virtual
    duration, not the serial sum of per-message delays.
    """
    names = _selected_peers(cdss, peers)
    sync_config = cdss.config.sync
    if workers is None:
        workers = sync_config.workers
    if queue_depth is None:
        queue_depth = sync_config.queue_depth
    if workers < 1:
        raise SyncError(f"the async runtime needs workers >= 1, got {workers}")
    if queue_depth < 1:
        raise SyncError(f"the async runtime needs queue_depth >= 1, got {queue_depth}")

    gossip = getattr(cdss, "gossip", None)
    gossip_before = gossip.stats.snapshot() if gossip is not None else None
    gossip_rounds_before = gossip.rounds_run if gossip is not None else 0
    metrics_before = cdss.obs.metrics.snapshot() if metrics_enabled(cdss) else None

    loop = VirtualTimeEventLoop()
    runtime = AsyncSyncRuntime(cdss, names, workers, queue_depth)
    try:
        report, converged = loop.run_until_complete(runtime.run(max_rounds))
    finally:
        loop.close()

    cdss.network.clock.advance(runtime.virtual_seconds)
    runtime.flush_metrics()
    finalize_report(cdss, report, gossip_before, gossip_rounds_before, metrics_before)
    report.runtime = runtime.accounting()
    if not converged:
        raise SyncError(
            f"synchronization did not reach quiescence within {max_rounds} rounds",
            report=report,
        )
    return report
