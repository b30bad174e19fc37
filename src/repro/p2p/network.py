"""Simulated connectivity of the CDSS participants.

Peers operate autonomously and are only intermittently connected.  The
network tracks which peers are currently online, refuses store operations
from offline peers (configurable), and counts connects and disconnects per
peer (:meth:`Network.churn_stats`).  It keeps no event history: the
traffic it accounts lives in the shared metrics registry's ``net.*``
series (:meth:`Network.message_stats` is a view of them), and a caller
that wants the messages themselves wraps :meth:`Network.record_messages`,
which every message passes through in send order.

Subsystems that must react to churn — the distributed update store's
re-replication and anti-entropy passes — register listeners with
:meth:`Network.subscribe` and are invoked synchronously on every state
change.

Beyond connectivity, the network can model *time*: attach a seeded
:class:`LatencyModel` (:meth:`Network.set_latency_model`) and every message
sent through :meth:`Network.transmit` is assigned a deterministic per-link
delay (propagation + jitter + bandwidth-proportional transfer + seeded
congestion spikes that reorder messages on a link).  Delays advance the
network's :class:`VirtualClock` — *simulated* time, never wall-clock, so
runs stay byte-reproducible.  Messages occupy the timeline one after
another; :meth:`repro.api.sync.SyncReport.pipelined` replays a sync's
transfers as overlapped traffic from the per-link counters
(:meth:`Network.link_sequences`) without touching the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..core.hashing import prefix_hasher, stable_hash
from ..errors import NetworkError
from ..obs import Observability

#: The per-participant traffic series, in the order of a participant's
#: cached labelled keys (``Network._traffic_keys``).
_TRAFFIC_SERIES = (
    "net.messages.sent", "net.bytes.sent", "net.messages.received", "net.bytes.received",
)


class VirtualClock:
    """Monotonic simulated time, advanced explicitly — never by wall-clock."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move forward by ``seconds`` (>= 0); returns the new time."""
        if seconds < 0:
            raise NetworkError("the virtual clock cannot move backwards")
        self._now += seconds
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.6f})"


@dataclass(frozen=True)
class LatencyModel:
    """Deterministic per-link delay and bandwidth model.

    Every delay is derived from :func:`~repro.core.hashing.stable_hash` over
    ``(seed, sender, receiver, sequence)``, so the same configuration always
    produces the same message timeline regardless of process or interpreter
    — the model introduces realistic variance, not nondeterminism.

    Attributes:
        seed: Stream selector; different seeds give different (but equally
            reproducible) timelines.
        base_delay: One-way propagation delay per message, in simulated
            seconds.
        jitter: Uniform ±jitter added to the propagation delay.
        bandwidth: Link bandwidth in bytes per simulated second; each
            message additionally costs ``size / bandwidth``.
        spike_probability: Probability that a message hits a congestion
            spike (``spike_factor`` × base delay extra), which lets later
            messages on the same link overtake it — seeded reordering.
        spike_factor: Extra delay multiplier applied to spiked messages.
    """

    seed: int = 0
    base_delay: float = 0.005
    jitter: float = 0.003
    bandwidth: float = 1_000_000.0
    spike_probability: float = 0.1
    spike_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.jitter < 0:
            raise NetworkError("latency delays cannot be negative")
        if self.jitter > self.base_delay:
            raise NetworkError("jitter cannot exceed base_delay (negative delays)")
        if self.bandwidth <= 0:
            raise NetworkError("bandwidth must be positive")
        if not 0.0 <= self.spike_probability <= 1.0:
            raise NetworkError("spike_probability must lie in [0, 1]")
        if self.spike_factor < 0:
            raise NetworkError("spike_factor cannot be negative")

    def delay(self, sender: str, receiver: str, size: int, sequence: int) -> float:
        """The simulated one-way delay of message ``sequence`` on a link."""
        digest = stable_hash(("latency", self.seed, sender, receiver, sequence))
        return self.delay_of(digest, size)

    def link_hasher(self, sender: str, receiver: str) -> Callable[[int], int]:
        """``sequence -> digest`` for one link, exactly the digest
        :meth:`delay` draws from, with the link's prefix hashed once."""
        return prefix_hasher(("latency", self.seed, sender, receiver))

    def delay_of(self, digest: int, size: int) -> float:
        """The delay of a ``size``-byte message whose draw is ``digest``."""
        # Two independent uniform draws from disjoint digest bits.
        jitter_draw = (digest & 0xFFFF) / 0xFFFF
        spike_draw = ((digest >> 16) & 0xFFFF) / 0x10000
        delay = self.base_delay + (2.0 * jitter_draw - 1.0) * self.jitter
        if spike_draw < self.spike_probability:
            delay += self.base_delay * self.spike_factor
        return delay + size / self.bandwidth


@dataclass
class ConnectivityEvent:
    """One connect/disconnect event, as :meth:`Network.subscribe`'s
    listeners receive it."""

    step: int
    peer: str
    online: bool


class Network:
    """Tracks online/offline state of every registered peer."""

    def __init__(self, peers: Iterable[str] = ()) -> None:
        self._online: dict[str, bool] = {}
        self._step = 0
        self._listeners: list[Callable[[ConnectivityEvent], None]] = []
        self._connects: dict[str, int] = {}
        self._disconnects: dict[str, int] = {}
        # Message accounting, fed by the reconciliation layer, lives on the
        # shared metrics registry (``net.*`` series, labelled per
        # participant).
        #: participant -> its labelled ``_TRAFFIC_SERIES`` keys, built once.
        self._traffic_keys: dict[str, tuple[str, ...]] = {}
        self.obs = Observability()
        # Simulated time: a latency model (None = instantaneous links) and
        # the virtual clock its delays advance.  Per-link sequence counters
        # feed the model's seeded delay stream.
        self.clock = VirtualClock()
        self.latency: Optional[LatencyModel] = None
        self._link_sequence: dict[tuple[str, str], int] = {}
        # Each link's ``sequence -> digest`` function under the current model.
        self._link_hashers: dict[tuple[str, str], Callable[[int], int]] = {}
        for peer in peers:
            self.register(peer)

    # -- simulated time ---------------------------------------------------------
    def set_latency_model(self, model: Optional[LatencyModel]) -> None:
        """Attach (or clear) the deterministic link delay/bandwidth model."""
        self.latency = model
        self._link_hashers.clear()

    def link_delay(self, sender: str, receiver: str, size: int) -> float:
        """The next message's simulated delay on ``sender -> receiver``.

        Draws (and consumes) the link's next sequence number, so repeated
        calls walk the seeded delay stream deterministically.  Returns 0.0
        when no latency model is attached.
        """
        if self.latency is None:
            return 0.0
        link = (sender, receiver)
        sequence = self._link_sequence.get(link, 0)
        self._link_sequence[link] = sequence + 1
        hasher = self._link_hashers.get(link)
        if hasher is None:
            hasher = self._link_hashers[link] = self.latency.link_hasher(sender, receiver)
        return self.latency.delay_of(hasher(sequence), size)

    def link_sequences(self) -> dict[tuple[str, str], int]:
        """Each link's next sequence number (a copy; absent links are at 0)."""
        return dict(self._link_sequence)

    def transmit(self, sender: str, receiver: str, kind: str, size: int) -> float:
        """Record one message, advance the virtual clock by its simulated
        delay, and return the delay: consecutive messages occupy the
        timeline one after another."""
        self.record_message(sender, receiver, kind, size)
        delay = self.link_delay(sender, receiver, size)
        if delay:
            self.clock.advance(delay)
        return delay

    # -- membership -----------------------------------------------------------
    def register(self, peer: str, online: bool = True) -> None:
        if peer in self._online:
            raise NetworkError(f"peer {peer!r} is already registered with the network")
        self._online[peer] = online

    def peers(self) -> set[str]:
        return set(self._online)

    # -- connectivity -----------------------------------------------------------
    def is_online(self, peer: str) -> bool:
        try:
            return self._online[peer]
        except KeyError:
            raise NetworkError(f"peer {peer!r} is not registered with the network") from None

    def online_peers(self) -> set[str]:
        return {peer for peer, online in self._online.items() if online}

    def set_online(self, peer: str, online: bool) -> None:
        current = self.is_online(peer)
        if current == online:
            return
        self._online[peer] = online
        self._step += 1
        event = ConnectivityEvent(self._step, peer, online)
        counters = self._connects if online else self._disconnects
        counters[peer] = counters.get(peer, 0) + 1
        for listener in self._listeners:
            listener(event)

    def connect(self, peer: str) -> None:
        self.set_online(peer, True)

    def disconnect(self, peer: str) -> None:
        self.set_online(peer, False)

    def require_online(self, peer: str, operation: str) -> None:
        if not self.is_online(peer):
            raise NetworkError(f"peer {peer!r} is offline and cannot {operation}")

    # -- listeners --------------------------------------------------------------
    def subscribe(self, listener: Callable[[ConnectivityEvent], None]) -> None:
        """Invoke ``listener`` synchronously on every connectivity change."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[ConnectivityEvent], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # -- churn -----------------------------------------------------------------
    def churn_stats(self) -> dict:
        """Connectivity changes, in all and per peer."""
        connects = sum(self._connects.values())
        disconnects = sum(self._disconnects.values())
        per_peer = {
            peer: {
                "connects": self._connects.get(peer, 0),
                "disconnects": self._disconnects.get(peer, 0),
            }
            for peer in sorted(set(self._connects) | set(self._disconnects))
        }
        return {
            "events": self._step,
            "connects": connects,
            "disconnects": disconnects,
            "per_peer": per_peer,
        }

    # -- message accounting -----------------------------------------------------
    def record_message(self, sender: str, receiver: str, kind: str, size: int) -> None:
        """Record one point-to-point message for the traffic counters.

        Senders/receivers need not be registered peers: the reconciliation
        layer also accounts traffic to the durable archive (``#archive``),
        which is a store, not a peer.  The one-row case of
        :meth:`record_messages`.
        """
        self.record_messages(((sender, receiver, kind, size),))

    def record_messages(self, rows: Sequence[tuple[str, str, str, int]]) -> None:
        """Record ``(sender, receiver, kind, size)`` messages in order.

        The registry ends as one :meth:`record_message` per row would leave
        it: the ``net.*`` counters are summed per ``(sender, receiver)``
        link first and added with one registry call per link, so a
        reconciliation session that sends a dozen messages between the
        same two participants pays for two links, not a dozen rows.  A
        negative size rejects the whole batch before anything is recorded.
        """
        links: dict[tuple[str, str], list[int]] = {}
        for sender, receiver, _, size in rows:
            if size < 0:
                raise NetworkError("message size cannot be negative")
            link = (sender, receiver)
            if link in links:
                totals = links[link]
                totals[0] += 1
                totals[1] += size
            else:
                links[link] = [1, size]
        keys = self._traffic_keys
        counters_add = self.obs.metrics.counters_add
        for (sender, receiver), (messages, size) in links.items():
            sent = keys.get(sender) or self._new_traffic_keys(sender)
            received = keys.get(receiver) or self._new_traffic_keys(receiver)
            counters_add(
                (
                    "net.messages.sent", sent[0], "net.bytes.sent", sent[1],
                    "net.messages.received", received[2], "net.bytes.received", received[3],
                ),
                (messages, messages, size, size, messages, messages, size, size),
            )

    def _new_traffic_keys(self, name: str) -> tuple[str, ...]:
        keys = self._traffic_keys[name] = tuple(
            f"{series}[{name}]" for series in _TRAFFIC_SERIES
        )
        return keys

    def message_stats(self) -> dict:
        """Messages and bytes sent, in all and per participant: a view of
        the shared metrics registry's ``net.*`` series."""
        metrics = self.obs.metrics
        messages_sent = metrics.labelled_counters("net.messages.sent")
        messages_received = metrics.labelled_counters("net.messages.received")
        bytes_sent = metrics.labelled_counters("net.bytes.sent")
        bytes_received = metrics.labelled_counters("net.bytes.received")
        participants = sorted(set(messages_sent) | set(messages_received))
        per_peer = {
            name: {
                "sent": int(messages_sent.get(name, 0)),
                "received": int(messages_received.get(name, 0)),
                "bytes_sent": int(bytes_sent.get(name, 0)),
                "bytes_received": int(bytes_received.get(name, 0)),
            }
            for name in participants
        }
        return {
            "messages": int(metrics.counter_value("net.messages.sent")),
            "bytes": int(metrics.counter_value("net.bytes.sent")),
            "per_peer": per_peer,
        }

    def availability(self) -> dict[str, bool]:
        return dict(self._online)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        online = sorted(self.online_peers())
        offline = sorted(self.peers() - self.online_peers())
        return f"Network(online={online}, offline={offline})"
