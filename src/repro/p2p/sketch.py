"""Set-reconciliation sketches and compact epoch clocks.

Two reconnecting peers want to learn "which published transactions does one
of us hold that the other lacks" without shipping their whole logs.  This
module provides the data structures for that exchange:

* :func:`transaction_digest` / :func:`entry_digest` — process-stable 64-bit
  content digests (built on :mod:`repro.core.hashing`; independent of
  ``PYTHONHASHSEED``, so both ends of a session agree on every digest).
* :class:`IBLTSketch` — an invertible Bloom lookup table.  Subtracting two
  peers' tables cancels the shared elements, and peeling the difference
  *decodes* the exact symmetric difference when it fits the table's
  capacity; overflow raises :class:`~repro.errors.SketchError` and the
  protocol grows the table and retries.
* :class:`CompactClock` — a constant-size (count, checksum, latest epoch)
  summary of an entry set, the one every
  :class:`~repro.p2p.store.EpochLog` keeps.  Two equal
  clocks mean equal sets (64-bit-whp), which short-circuits sessions
  between already-converged peers at the cost of one tiny message each
  way; the distributed store's anti-entropy compares its replicas' clocks
  the same way before it moves any entry.

Sketch sizes are deliberate: an IBLT is ~1.5 cells of 14 bytes per element
of *difference* — so the bytes a session moves scale with the diff, not the
log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.hashing import (
    MASK64,
    canonical_encode,
    encoded_size,
    mix64,
    stable_hash,
    stable_text_hash,
    xor_checksum,
)
from ..errors import SketchError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..core.transactions import Transaction
    from .store import PublishedTransaction

__all__ = [
    "CompactClock",
    "IBLTSketch",
    "entry_digest",
    "entry_wire_size",
    "transaction_digest",
]


# -- content digests -----------------------------------------------------------------

def transaction_digest(transaction: "Transaction", seed: int = 0) -> int:
    """Process-stable 64-bit content digest of a transaction (see
    :meth:`repro.core.transactions.Transaction.content_digest`)."""
    return transaction.content_digest(seed=seed)


def entry_payload(entry: "PublishedTransaction") -> tuple:
    """Canonical value identifying one archived entry (epoch and sequence
    included: the same transaction republished at a different position is a
    different archive entry)."""
    return (
        "entry",
        entry.publisher,
        entry.epoch,
        entry.sequence,
        entry.transaction.txn_id,
        entry.transaction.content_payload(),
    )


def entry_digest(entry: "PublishedTransaction", seed: int = 0) -> int:
    """Process-stable 64-bit digest of one archived entry."""
    return stable_hash(entry_payload(entry), seed=seed)


def entry_wire_size(entry: "PublishedTransaction") -> int:
    """Bytes needed to ship one entry: the size of its canonical encoding."""
    return len(canonical_encode(entry_payload(entry)))


# -- set summaries -----------------------------------------------------------------

@dataclass(frozen=True)
class CompactClock:
    """Constant-size summary of an entry set: element count, XOR-of-digests
    checksum, and the latest epoch held.

    Equal clocks mean equal sets with 64-bit-whp confidence, so exchanging
    two of these (24 bytes each) is enough to skip a full session between
    converged peers, and enough for the distributed store's anti-entropy to
    notice that two replicas diverge.
    """

    count: int
    checksum: int
    latest: int

    BYTE_SIZE = 24  # three 64-bit slots

    def byte_size(self) -> int:
        return self.BYTE_SIZE

    def agrees_with(self, other: "CompactClock") -> bool:
        return self.count == other.count and self.checksum == other.checksum


# -- invertible Bloom lookup table ---------------------------------------------------

#: A key's ``(check, probe cells)`` in one table shape.
_Position = tuple[int, tuple[int, ...]]


class IBLTSketch:
    """Invertible Bloom lookup table over 64-bit digests.

    Sized at ~1.5 cells per element of expected *difference*; 3 probes per
    key.  ``subtract`` cancels elements present in both tables (as does
    :meth:`remove` of the other side's keys, cell for cell), and
    :meth:`decode` peels the remainder into the two one-sided difference
    sets, raising :class:`SketchError` when the difference exceeded what the
    table can peel.

    Only touched cells are stored (``{index: [count, key, check]}``; an
    absent cell is all zeros), so building, subtracting and decoding cost in
    proportion to the elements, not the capacity.  The wire size is still
    the full table's: a dense table of ``_size`` cells is what travels.

    A key's check and probe cells depend only on the key and the table's
    shape ``(seed, size)``.  ``positions`` is a ``{shape: {key: (check,
    cells)}}`` memo the caller may share across tables (the reconciler
    keeps one for all its sessions), so a digest that enters tables of the
    same shape again and again is hashed once; without one, each table
    memoizes its own keys.  The memo is a pure function cache: the cells
    are exactly those :meth:`_check_of` and :meth:`_probes` give.
    """

    PROBES = 3
    CELLS_PER_ELEMENT = 1.5
    CELL_BYTES = 14  # 2-byte signed count + 8-byte key XOR + 4-byte check XOR

    def __init__(
        self,
        capacity: int,
        seed: int = 0,
        _cells: Optional[int] = None,
        positions: Optional[dict[tuple[int, int], dict[int, _Position]]] = None,
    ) -> None:
        if capacity < 1:
            raise SketchError("iblt capacity must be positive")
        self.capacity = capacity
        self.seed = seed & MASK64
        if _cells is not None:
            size = _cells
        else:
            size = max(self.PROBES, int(capacity * self.CELLS_PER_ELEMENT + 0.5))
            size += (-size) % self.PROBES  # equal partition per probe
        self._size = size
        self._cells: dict[int, list[int]] = {}
        #: key -> (check, probe cells) for this table's shape.
        self._positions: dict[int, _Position] = (
            {} if positions is None else positions.setdefault((self.seed, size), {})
        )

    def _check_of(self, key: int) -> int:
        return mix64(key ^ self.seed ^ 0xC2B2AE3D27D4EB4F) & 0xFFFFFFFF

    def _probes(self, key: int) -> list[int]:
        # One probe per equal partition of the table, each independently
        # hashed.  Double hashing ((h1 + i*h2) % size) is tempting but wrong
        # here: whenever h2 shares a factor with the composite table size,
        # probe triples collapse onto small sublattices, and at realistic
        # loads two keys land on the *same* cell set often enough to stall
        # the peeling decoder.  Partitioning keeps cells distinct by
        # construction and probe choices independent.
        span = self._size // self.PROBES
        return [
            index * span
            + mix64(key ^ self.seed ^ ((index + 1) * 0x9E3779B97F4A7C15 & MASK64)) % span
            for index in range(self.PROBES)
        ]

    def _position(self, key: int) -> _Position:
        position = self._positions.get(key)
        if position is None:
            position = self._positions[key] = (self._check_of(key), tuple(self._probes(key)))
        return position

    def _apply(self, key: int, delta: int) -> None:
        check, probes = self._position(key)
        cells = self._cells
        for index in probes:
            cell = cells.get(index)
            if cell is None:
                cells[index] = [delta, key, check]
            else:
                cell[0] += delta
                cell[1] ^= key
                cell[2] ^= check

    def add(self, key: int) -> None:
        self._apply(key & MASK64, +1)

    def remove(self, key: int) -> None:
        self._apply(key & MASK64, -1)

    def subtract(self, other: "IBLTSketch") -> "IBLTSketch":
        """Cell-wise difference ``self - other``; both tables must share
        size and seed (i.e. come from the same session attempt)."""
        if self._size != other._size or self.seed != other.seed:
            raise SketchError("cannot subtract sketches of different shapes or seeds")
        result = IBLTSketch(self.capacity, seed=self.seed, _cells=self._size)
        result._positions = self._positions
        cells = result._cells
        for index, (count, key, check) in self._cells.items():
            cells[index] = [count, key, check]
        for index, (count, key, check) in other._cells.items():
            cell = cells.get(index)
            if cell is None:
                cells[index] = [-count, key, check]
            else:
                cell[0] -= count
                cell[1] ^= key
                cell[2] ^= check
        return result

    def decode(self) -> tuple[set[int], set[int]]:
        """Peel a subtracted table into ``(only_left, only_right)`` digest
        sets, where *left* is the minuend of :meth:`subtract` (the keys
        added, when the other side's keys were removed instead).

        Raises :class:`SketchError` when peeling stalls (difference larger
        than capacity, or a check-hash collision) — the caller grows the
        table and retries, then falls back to cursor replay.
        """
        cells = {index: list(cell) for index, cell in self._cells.items()}
        check_of = self._check_of
        known = self._positions.get
        only_left: set[int] = set()
        only_right: set[int] = set()

        def pure(cell: list[int]) -> bool:
            if cell[0] not in (1, -1):
                return False
            # A cell's key is usually a digest some table of this shape
            # already holds; a XOR of several is checked without memoizing.
            position = known(cell[1])
            return cell[2] == (check_of(cell[1]) if position is None else position[0])

        # Ascending touched indices: the pop order of a dense scan, since an
        # untouched cell is never pure.
        frontier = [index for index in sorted(cells) if pure(cells[index])]
        while frontier:
            cell = cells[frontier.pop()]
            if not pure(cell):
                continue
            count, key, _ = cell
            side = only_left if count == 1 else only_right
            side.add(key)
            check, probes = self._position(key)
            for index in probes:
                probed = cells.get(index)
                if probed is None:
                    # Only a check-hash collision peels a key whose probes
                    # were never touched; the cell it leaves behind is what
                    # makes the stall below fire.
                    probed = cells[index] = [0, 0, 0]
                probed[0] -= count
                probed[1] ^= key
                probed[2] ^= check
                if pure(probed):
                    frontier.append(index)
        if any(map(any, cells.values())):
            raise SketchError(
                f"iblt decode stalled (capacity {self.capacity}, "
                f"{sum(1 for cell in cells.values() if cell[0])} undrained cells)"
            )
        return only_left, only_right

    def byte_size(self) -> int:
        return self._size * self.CELL_BYTES


# re-exported for convenience: the reconcile layer treats this module as the
# home of everything hash-related.
__all__ += ["canonical_encode", "encoded_size", "stable_hash", "stable_text_hash", "xor_checksum", "mix64"]
