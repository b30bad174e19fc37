"""The sketch-based set-reconciliation protocol.

A *session* makes two entry sets equal while moving bytes proportional to
their symmetric difference, not their size:

1. **challenge** — both sides exchange a constant-size summary (count, XOR
   checksum, latest epoch, completeness watermark: 48 bytes with the
   envelope, however many publishers or entries a side holds).  Equal count
   and checksum end the session after two messages: already converged.
2. **sketch exchange** — one side ships an IBLT sketch of its entries
   *above the shared completeness watermark* (everything below it is
   provably held by both sides and cancels for free).  The receiver
   removes its own entries above the watermark from the table it received
   and decodes the exact symmetric difference.
3. **diff transfer** — the decoded missing entries travel as explicit
   batches; a request message fetches the entries only the other side can
   supply.
4. **verify / grow / fall back** — the session re-exchanges checksums.  If
   the sets still differ (the difference overflowed the sketch, so decoding
   failed) the sketch is regrown by :attr:`SetReconciler.GROWTH`× with a
   fresh seed and the exchange retried, up to
   :attr:`SetReconciler.ATTEMPTS` attempts in all, the first sized
   :attr:`SetReconciler.CAPACITY`; after that the session falls back to
   cursor replay from the completeness watermark.  Fallback ships the whole
   log tail — the cost the sketches exist to avoid — but it is always
   correct: decode failure is a performance event, never a wrongness event.

Every message is a ``(sender, receiver, kind, size)`` row, its size the
wire size of its fields (the ``*_BYTES`` constants below, and each shipped
entry's ``wire_size``).  Every send is accounted in the metrics registry's
``gossip.*``/``sketch.*`` series (read back by field name with
:func:`session_counts`) and, when a :class:`~repro.p2p.network.Network` is
attached, in its ``net.*`` series, so benchmarks report bytes moved rather
than just wall-clock latency.  Sends wait in an outbox, and session
outcomes in plain counts, that one flush accounts: one network call, one
registry call.  A session flushes when it ends, unless it runs inside
:meth:`SetReconciler.batched` (a gossip round, or that round's repair
sessions), which flushes once when its block ends.  The rows, their order
and every counter are what one call per message would have left.

Hashing is paid once per shape, not once per session: a
:class:`SetReconciler` memoizes each attempt's seed per ``(attempt,
capacity)`` and each digest's check and probe cells per ``(seed, size)``
table shape.  The same few hundred digests enter tables of the same few
shapes again and again.

The two sides of a session are entry sets: :class:`EntryCache`, a peer's
gossip cache, and :class:`StoreView`, the archive's mirror.  Both are an
:class:`~repro.p2p.store.EpochLog` (the one entry set of the package, which
keeps the canonical order, the digest index and the count/checksum summary
a session reads) plus a completeness watermark; the mirror adds only its
refresh from the store and ignores the entries a session offers it.

Completeness watermarks make the fallback sound: ``complete_until`` is the
epoch up to which a side provably holds *every* archived entry.  It starts
at a side's last verified session against the authoritative archive and
propagates through sessions (if you now hold a superset of a side complete
through epoch e, you are complete through e too).  Any entry a side is
missing therefore lies strictly above its watermark, so replaying the
partner's log tail from that watermark misses nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..errors import SketchError
from ..obs import MetricsRegistry, Observability
from .network import Network
from .sketch import CompactClock, IBLTSketch, stable_hash
from .store import EpochLog, PublishedTransaction

#: Fixed per-message envelope cost (sender/receiver/kind framing).
MESSAGE_HEADER_BYTES = 16

ARCHIVE_NAME = "#archive"


#: Opening summary: count, XOR checksum, latest epoch and completeness
#: watermark, four 64-bit slots.
CHALLENGE_BYTES = MESSAGE_HEADER_BYTES + 32
#: A sketch message's algorithm, capacity and attempt fields; the table's
#: own ``byte_size()`` comes on top.
SKETCH_FIELDS_BYTES = MESSAGE_HEADER_BYTES + 12
#: Fallback request: replay everything after the sender's watermark.
CURSOR_BYTES = MESSAGE_HEADER_BYTES + 8
#: Post-transfer verification: a :class:`CompactClock` set summary.
CLOCK_BYTES = MESSAGE_HEADER_BYTES + CompactClock.BYTE_SIZE


def _batch_bytes(entries: Iterable[PublishedTransaction]) -> int:
    """An entry batch: archived entries in their canonical encoding."""
    return MESSAGE_HEADER_BYTES + sum(entry.wire_size for entry in entries)


# -- traffic accounting --------------------------------------------------------------

#: The session counters' registry series, under the field names round rows,
#: gossip reports and sync reports carry them by.
_SESSION_SERIES = (
    ("sessions", "gossip.sessions"),
    ("unchanged_sessions", "gossip.sessions_unchanged"),
    ("converged_sessions", "gossip.sessions_converged"),
    ("messages", "gossip.messages"),
    ("bytes", "gossip.bytes"),
    ("sketch_bytes", "gossip.bytes_sketch"),
    ("entry_bytes", "gossip.bytes_entries"),
    ("entries_delivered", "gossip.entries_delivered"),
    ("decode_failures", "sketch.decode.failures"),
    ("fallbacks", "gossip.fallbacks"),
)


def session_counts(
    metrics: MetricsRegistry, since: Optional[dict[str, int]] = None
) -> dict[str, int]:
    """The session counters by field name: the registry's values, or their
    moves since ``since`` (an earlier reading)."""
    counts = {name: metrics.counter_value(series) for name, series in _SESSION_SERIES}
    if since is not None:
        return {name: value - since[name] for name, value in counts.items()}
    return counts


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one reconciliation session between two entry sets."""

    converged: bool
    delivered_left: int
    delivered_right: int
    attempts: int
    fell_back: bool

    @property
    def delivered(self) -> int:
        return self.delivered_left + self.delivered_right


# -- entry sets ----------------------------------------------------------------------

class EntryCache(EpochLog):
    """A peer's local set of archived entries: an :class:`EpochLog` (which
    keeps the order, the indexes and the summary a session reads) plus the
    completeness watermark ``complete_until`` documented in the module
    docstring."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self._complete_until = 0

    @property
    def complete_until(self) -> int:
        return self._complete_until

    def mark_complete(self, epoch: int) -> None:
        if epoch > self._complete_until:
            self._complete_until = epoch

    def add_entries(self, entries: Iterable[PublishedTransaction]) -> int:
        """Take the entries a session delivers; returns how many were new."""
        return sum(map(self.add, entries))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, {len(self)} entries, "
            f"complete<={self._complete_until})"
        )


class StoreView(EntryCache):
    """The authoritative archive as a reconciliation participant.

    Mirrors the store incrementally (pulling only epochs at or above the
    mirror's latest on each :meth:`refresh`) so sketch sessions against the
    store cost O(tail), not O(log).  The store is the source of truth: it
    never accepts entries from peers (every entry reaches it through
    ``archive()`` at publication), so :meth:`add_entries` ignores what a
    session offers, and the view is complete through the store's latest
    epoch by definition.

    A refresh re-reads the store only when its ``generation`` moved since the
    last refresh that succeeded: nothing was archived and no replica became
    reachable or unreachable, so a read would return what the mirror holds.
    A failed read records nothing, so while a shard stays unreachable every
    refresh re-reads and raises — silence from a shard nobody can see is not
    "nothing new".
    """

    def __init__(self, store, name: str = ARCHIVE_NAME) -> None:
        super().__init__(name)
        self._store = store
        self._generation: Optional[int] = None

    def refresh(self) -> None:
        generation = self._store.generation
        if generation == self._generation:
            return
        # Re-pull from one epoch below the mirror's latest: a second batch
        # archived at the same epoch would otherwise be missed.  add()
        # drops the refetched overlap by transaction id.
        for entry in self._store.published_since(self.latest_epoch() - 1):
            self.add(entry)
        self.mark_complete(self._store.latest_epoch())
        self._generation = generation

    @property
    def generation(self) -> Optional[int]:
        """The store generation the mirror was last refreshed at (``None``
        before the first successful refresh)."""
        return self._generation

    def add_entries(self, entries: Iterable[PublishedTransaction]) -> int:
        return 0


# -- the reconciler ------------------------------------------------------------------

class SetReconciler:
    """Runs reconciliation sessions and accounts every message."""

    #: Initial sketch capacity, in difference elements.
    CAPACITY = 32
    #: Capacity multiplier applied on each decode failure.
    GROWTH = 4
    #: Sketch attempts before falling back to cursor replay.
    ATTEMPTS = 3

    def __init__(
        self,
        network: Optional[Network] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        self._network = network
        if observability is not None:
            self._obs = observability
        elif network is not None:
            self._obs = network.obs
        else:
            self._obs = Observability()
        #: ``(sender, receiver, kind, size)`` rows sent since the last
        #: flush, accounted in one flush.
        self._outbox: list[tuple[str, str, str, int]] = []
        # Session outcomes since the last flush.
        self._sessions = 0
        self._unchanged = 0
        self._converged = 0
        self._delivered = 0
        self._decode_failures = 0
        self._fallbacks = 0
        self._decodes = 0
        #: Inside :meth:`batched`: sessions leave their rows for its flush.
        self._batching = False
        #: ``(attempt, capacity) -> seed``: a handful of distinct values.
        self._seeds: dict[tuple[int, int], int] = {}
        #: The IBLT ``{(seed, size): {digest: (check, cells)}}`` memo shared
        #: by every table this reconciler builds.
        self._iblt_positions: dict[tuple[int, int], dict] = {}

    # -- accounting --------------------------------------------------------------
    @contextmanager
    def batched(self) -> Iterator[None]:
        """Account every session run inside the block in one flush when it
        ends: one network call for all their rows, one registry call for
        all their ``gossip.*``/``sketch.*`` counts.  Only for sessions with
        no other traffic between them: a message another layer records
        inside the block would reach the network ahead of rows sent before
        it."""
        self._batching = True
        try:
            yield
        finally:
            self._batching = False
            self._flush()

    def _flush(self) -> None:
        """Account the outbox, with one call, in the network's ``net.*``
        series; then add it and the session counts since the last flush
        to the registry with one more, leaving out counts that are zero."""
        rows = self._outbox
        self._outbox = []
        if self._network is not None:
            self._network.record_messages(rows)
        total = sketch = entries = 0
        for _, _, kind, size in rows:
            total += size
            if kind == "sketch":
                sketch += size
            elif kind == "batch":
                entries += size
        counts = (
            self._sessions, self._unchanged, self._converged, len(rows), total,
            sketch, entries, self._delivered, self._decode_failures, self._fallbacks,
        )
        keys = []
        values = []
        for (_, key), count in zip(_SESSION_SERIES, counts):
            if count:
                keys.append(key)
                values.append(count)
        if self._decodes:
            keys.append("sketch.decode.successes")
            values.append(self._decodes)
        self._sessions = self._unchanged = self._converged = self._delivered = 0
        self._decode_failures = self._fallbacks = self._decodes = 0
        self._obs.metrics.counters_add(keys, values)

    def _seed(self, attempt: int, capacity: int) -> int:
        seed = self._seeds.get((attempt, capacity))
        if seed is None:
            seed = self._seeds[attempt, capacity] = stable_hash(
                ("reconcile-attempt", attempt, capacity)
            )
        return seed

    # -- session -----------------------------------------------------------------
    def reconcile(self, left, right) -> SessionResult:
        """Make ``left`` and ``right`` hold the same entries; returns what
        the session delivered and how it got there."""
        with self._obs.span("gossip.session", left=left.name, right=right.name):
            if self._batching:
                return self._run_session(left, right)
            try:
                return self._run_session(left, right)
            finally:
                self._flush()

    def _run_session(self, left, right) -> SessionResult:
        self._sessions += 1
        send = self._outbox.append
        send((left.name, right.name, "challenge", CHALLENGE_BYTES))
        send((right.name, left.name, "challenge", CHALLENGE_BYTES))
        count_left = len(left)
        count_right = len(right)
        if count_left == count_right and left.checksum == right.checksum:
            self._unchanged += 1
            self._propagate_completeness(left, right)
            return SessionResult(True, 0, 0, 0, False)

        delivered_left = delivered_right = 0
        base_capacity = max(self.CAPACITY, 2 * abs(count_left - count_right))
        watermark = min(left.complete_until, right.complete_until)
        for attempt in range(self.ATTEMPTS):
            capacity = base_capacity * (self.GROWTH ** attempt)
            seed = self._seed(attempt, capacity)
            got_left, got_right, converged = self._iblt_attempt(
                left, right, watermark, capacity, attempt, seed
            )
            delivered_left += got_left
            delivered_right += got_right
            self._delivered += got_left + got_right
            if converged:
                self._converged += 1
                self._propagate_completeness(left, right)
                return SessionResult(True, delivered_left, delivered_right, attempt + 1, False)
            self._decode_failures += 1

        self._fallbacks += 1
        got_left, got_right = self._cursor_fallback(left, right)
        delivered_left += got_left
        delivered_right += got_right
        self._delivered += got_left + got_right
        converged = self._verify(left, right)
        if converged:
            self._converged += 1
            self._propagate_completeness(left, right)
        return SessionResult(converged, delivered_left, delivered_right, self.ATTEMPTS, True)

    # -- sketch attempts ---------------------------------------------------------
    def _iblt_attempt(
        self, left, right, watermark: int, capacity: int, attempt: int, seed: int
    ) -> tuple[int, int, bool]:
        send = self._outbox.append
        sketch = IBLTSketch(capacity, seed=seed, positions=self._iblt_positions)
        for entry in left.since(watermark):
            sketch.add(entry.digest)
        send((left.name, right.name, "sketch", SKETCH_FIELDS_BYTES + sketch.byte_size()))
        # The receiver takes its own digests out of the table it received,
        # leaving the cells of ``left's sketch.subtract(right's sketch)``.
        for entry in right.since(watermark):
            sketch.remove(entry.digest)
        with self._obs.span(
            "sketch.decode", algorithm="iblt", capacity=capacity, attempt=attempt
        ):
            try:
                only_left, only_right = sketch.decode()
            except SketchError:
                return 0, 0, False
        self._decodes += 1
        to_left = right.entries_for(only_right)
        send((right.name, left.name, "batch", _batch_bytes(to_left)))
        # The digests the right side wants shipped back, 8 bytes each.
        send((right.name, left.name, "request", MESSAGE_HEADER_BYTES + 8 * len(only_left)))
        delivered_left = left.add_entries(to_left)
        to_right = left.entries_for(only_left)
        send((left.name, right.name, "batch", _batch_bytes(to_right)))
        delivered_right = right.add_entries(to_right)
        return delivered_left, delivered_right, self._verify(left, right)

    # -- fallback and verification -----------------------------------------------
    def _cursor_fallback(self, left, right) -> tuple[int, int]:
        """Cursor replay: each side ships its whole tail above the *other*
        side's completeness watermark.  O(tail) bytes, unconditionally
        correct (see the module docstring)."""
        send = self._outbox.append
        send((left.name, right.name, "cursor", CURSOR_BYTES))
        to_left = right.since(left.complete_until)
        send((right.name, left.name, "batch", _batch_bytes(to_left)))
        delivered_left = left.add_entries(to_left)
        send((right.name, left.name, "cursor", CURSOR_BYTES))
        to_right = left.since(right.complete_until)
        send((left.name, right.name, "batch", _batch_bytes(to_right)))
        delivered_right = right.add_entries(to_right)
        return delivered_left, delivered_right

    def _verify(self, left, right) -> bool:
        """Both sides send their set summary; equal count and checksum mean
        equal sets (64-bit-whp)."""
        send = self._outbox.append
        send((left.name, right.name, "clock", CLOCK_BYTES))
        send((right.name, left.name, "clock", CLOCK_BYTES))
        return len(left) == len(right) and left.checksum == right.checksum

    def _propagate_completeness(self, left, right) -> None:
        # The sides now hold equal sets; each is complete at least as far as
        # the better-informed of the two was.
        watermark = max(left.complete_until, right.complete_until)
        left.mark_complete(watermark)
        right.mark_complete(watermark)


def cursor_transfer_bytes(entries: Iterable[PublishedTransaction]) -> int:
    """Bytes a plain cursor replay of ``entries`` would move (request +
    batch), for baseline comparisons in benchmarks and examples."""
    return CURSOR_BYTES + _batch_bytes(entries)
