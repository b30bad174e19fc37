"""The pipelined schedule of a finished sync, as a discrete-event analysis.

The serial loop in :mod:`repro.api.sync` prices every transfer back to back,
so the network's virtual clock advances by the *sum* of the delays.
:func:`pipelined` replays the transfers a sync recorded as if independent
peers' traffic overlapped, and reports how long the rounds take on the
*critical path* under admission control:

* a shared pool of ``workers`` transfer slots, granted first come first
  served when saturated;
* one FIFO delivery queue per peer, drained one transfer at a time and
  holding at most ``queue_depth`` items; a producer that finds it full waits
  for room (a counted *backpressure stall*);
* reconcile downlinks are queued when a round starts, and a publish uplink
  queues its fan-out to the shard's replica hosts once it completes;
* a round ends when every queue has drained.

Compute never moves — only the traffic does — so the analysis is a pure
function of the report: it redraws each delay from the latency model at the
link counters the sync started from, on a private copy of them.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count

from ..errors import SyncError


class _Queue:
    """One peer's bounded delivery queue and the state of its consumer."""

    __slots__ = ("items", "putters", "busy")

    def __init__(self) -> None:
        self.items: deque = deque()  # sizes waiting to be delivered
        self.putters: deque = deque()  # (size, deliveries) of blocked producers
        self.busy = False


class _Schedule:
    def __init__(self, report, workers: int, queue_depth: int) -> None:
        self.latency = report.latency
        self.sequences = dict(report.link_sequences)
        self.depth = queue_depth
        self.queues = {peer: _Queue() for peer in report.peers}
        self.free = workers
        self.waiting: deque = deque()
        self.timers: list = []
        self.order = count()
        self.now = 0.0
        self.in_flight = self.max_in_flight = self.transfers = 0
        self.stalls = self.max_depth = 0

    # -- the worker pool ------------------------------------------------------
    def request(self, job) -> None:
        """Start ``job`` on a free slot, or wait in line for one."""
        if not self.free:
            self.waiting.append(job)
            return
        self.free -= 1
        sender, receiver, size, _ = job
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        self.transfers += 1
        link = (sender, receiver)
        sequence = self.sequences.get(link, 0)
        self.sequences[link] = sequence + 1
        delay = self.latency.delay(sender, receiver, size, sequence)
        heapq.heappush(self.timers, (self.now + delay, next(self.order), job))

    def finish(self, job) -> None:
        """A transfer completed: hand its slot on, then continue its owner."""
        _, receiver, size, fanout = job
        self.in_flight -= 1
        self.free += 1
        if self.waiting:
            self.request(self.waiting.popleft())
        if fanout is None:  # a delivery: the consumer takes its next item
            queue = self.queues[receiver]
            queue.busy = False
            if queue.items:
                self.take(receiver, queue)
        else:
            self.produce(iter([(host, size) for host in fanout]))

    # -- the delivery queues --------------------------------------------------
    def produce(self, deliveries) -> None:
        """Queue ``(peer, size)`` deliveries in order, waiting at a full queue."""
        for peer, size in deliveries:
            queue = self.queues[peer]
            if len(queue.items) >= self.depth:
                self.stalls += 1
                queue.putters.append((size, deliveries))
                return
            self.enqueue(peer, queue, size)

    def enqueue(self, peer: str, queue: _Queue, size: int) -> None:
        queue.items.append(size)
        self.max_depth = max(self.max_depth, len(queue.items))
        if not queue.busy:
            self.take(peer, queue)

    def take(self, peer: str, queue: _Queue) -> None:
        queue.busy = True
        self.request(("archive", peer, queue.items.popleft(), None))
        if queue.putters:  # room again: the first blocked producer resumes
            size, deliveries = queue.putters.popleft()
            self.enqueue(peer, queue, size)
            self.produce(deliveries)

    def run_round(self, transfers) -> None:
        for transfer in transfers:
            if transfer.kind == "publish-uplink":
                fanout = tuple(
                    host
                    for host in transfer.fanout
                    if host != transfer.sender and host in self.queues
                )
                self.request((transfer.sender, transfer.receiver, transfer.size, fanout))
            else:
                self.produce(iter([(transfer.receiver, transfer.size)]))
        while self.timers:
            self.now, _, job = heapq.heappop(self.timers)
            self.finish(job)


def pipelined(report, workers: int = 8, queue_depth: int = 4) -> dict:
    """``report``'s transfers replayed as a pipeline (:meth:`SyncReport.pipelined`).

    ``workers`` transfer slots are shared by every peer and each peer's
    delivery queue holds ``queue_depth`` items.  Returns the virtual seconds
    the rounds take on the critical path, the transfer count, the peak
    in-flight transfers, the backpressure stalls and the deepest queue seen;
    all zero without a latency model.
    """
    if workers < 1 or queue_depth < 1:
        raise SyncError(
            f"the pipelined schedule needs workers and queue_depth >= 1, "
            f"got {workers} and {queue_depth}"
        )
    schedule = _Schedule(report, workers, queue_depth)
    for round_ in report.rounds:
        schedule.run_round(round_.transfers)
    return {
        "workers": workers,
        "queue_depth": queue_depth,
        "virtual_seconds": schedule.now,
        "transfers": schedule.transfers,
        "max_in_flight": schedule.max_in_flight,
        "backpressure_stalls": schedule.stalls,
        "max_queue_depth_seen": schedule.max_depth,
    }
