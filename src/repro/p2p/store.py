"""The shared archive of published transactions, and the entry set it is made of.

The update store is append-only and totally ordered by publication epoch.
Publishing archives a peer's transactions so they stay available to everyone
even when the publisher disconnects (demonstration Scenario 5); reconciling
peers ask the store for every transaction published after the epoch they last
reconciled at.

Publication of a batch is atomic: the whole batch is validated (ownership,
duplicate ids, epoch monotonicity) before the first entry is appended, so a
:class:`~repro.errors.PublicationError` never leaves a partially archived
batch behind.  Retrieval is indexed: ``published_since`` bisects on the
epoch-ordered log instead of scanning it, because the reconcile hot path
calls it once per peer per epoch.

:class:`EpochLog` is the one set of archived entries in :mod:`repro.p2p`.
It decides how entries are stored (canonical ``(epoch, sequence)`` order,
id and digest indexes) and summarised (entry count and XOR of the entry
digests, :meth:`EpochLog.compact_clock`).  The centralized archive is one;
so are a peer's gossip cache and the archive's mirror
(:mod:`repro.p2p.reconcile`) and every shard replica of the distributed
store (:mod:`repro.p2p.distributed`).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..core.hashing import canonical_encode, hash_encoded
from ..core.transactions import Transaction
from ..errors import PublicationError
from .sketch import CompactClock, entry_payload


@dataclass(frozen=True)
class PublishedTransaction:
    """One archived transaction together with its publication metadata."""

    transaction: Transaction
    epoch: int
    sequence: int
    publisher: str

    @property
    def txn_id(self) -> str:
        """The transaction's id — content-addressed when auto-generated (see
        :class:`~repro.core.transactions.TransactionBuilder`), so identical
        across interpreter runs and never dependent on builtin ``hash()``."""
        return self.transaction.txn_id

    @property
    def digest(self) -> int:
        """Process-stable 64-bit content digest of this archive entry
        (:func:`~repro.p2p.sketch.entry_digest`), the identity the
        reconciliation sketches operate on.  Cached: sketches hash every
        entry once per gossip session."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = self._encode_once()[0]
        return cached

    @property
    def wire_size(self) -> int:
        """Bytes needed to ship this entry in a reconciliation batch (the
        length of its canonical encoding), cached like :attr:`digest`."""
        cached = self.__dict__.get("_wire_size")
        if cached is None:
            cached = self._encode_once()[1]
        return cached

    def _encode_once(self) -> tuple[int, int]:
        # Digest and size are both functions of the one canonical encoding.
        encoded = canonical_encode(entry_payload(self))
        summary = (hash_encoded(encoded), len(encoded))
        object.__setattr__(self, "_digest", summary[0])
        object.__setattr__(self, "_wire_size", summary[1])
        return summary


class EpochLog:
    """An epoch-ordered set of published transactions with its summary.

    Entries are kept sorted by ``(epoch, sequence)`` (the canonical total
    order of the archive) with a parallel key array for ``since``
    bisection, an id index and a digest index.  An entry is identified by
    its transaction id, unique within an archive: adding one already held
    changes nothing.  Entries normally arrive in order (appends are O(1));
    out-of-order arrival (anti-entropy back-fill on a stale shard replica)
    degrades gracefully to an O(n) insort.

    The summary (count and XOR checksum of the entry digests) and the
    digest index take in the entries added since they were last read when
    they are next read: a log nobody reconciles by sketch, such as the
    centralized archive under cursor sync, never computes a digest.
    """

    def __init__(self) -> None:
        self._entries: list[PublishedTransaction] = []
        self._order: list[tuple[int, int]] = []  # (epoch, sequence), sorted
        self._by_id: dict[str, PublishedTransaction] = {}
        self._by_digest: dict[int, PublishedTransaction] = {}
        self._checksum = 0
        #: Entries not yet in ``_by_digest`` and ``_checksum``.
        self._unsummarised: list[PublishedTransaction] = []

    # -- mutation -----------------------------------------------------------
    def add(self, entry: PublishedTransaction) -> bool:
        """Hold ``entry``; False when it was already held."""
        if entry.txn_id in self._by_id:
            return False
        key = (entry.epoch, entry.sequence)
        if self._order and key < self._order[-1]:
            position = bisect_right(self._order, key)
            insort(self._order, key)
            self._entries.insert(position, entry)
        else:
            self._order.append(key)
            self._entries.append(entry)
        self._by_id[entry.txn_id] = entry
        self._unsummarised.append(entry)
        return True

    # -- summary ------------------------------------------------------------
    def _digest_index(self) -> dict[int, PublishedTransaction]:
        """The digest index, after taking in the unsummarised entries (and
        their digests into the checksum)."""
        if self._unsummarised:
            for entry in self._unsummarised:
                digest = entry.digest
                self._by_digest[digest] = entry
                self._checksum ^= digest
            self._unsummarised = []
        return self._by_digest

    @property
    def checksum(self) -> int:
        """XOR of every held entry's digest."""
        self._digest_index()
        return self._checksum

    def latest_epoch(self) -> int:
        return self._order[-1][0] if self._order else 0

    def compact_clock(self) -> CompactClock:
        return CompactClock(len(self._entries), self.checksum, self.latest_epoch())

    # -- lookup -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PublishedTransaction]:
        return iter(self._entries)

    def __contains__(self, txn_id: str) -> bool:
        return txn_id in self._by_id

    def get(self, txn_id: str) -> Optional[PublishedTransaction]:
        return self._by_id.get(txn_id)

    def entries(self) -> list[PublishedTransaction]:
        return list(self._entries)

    def since(self, epoch: int) -> list[PublishedTransaction]:
        """Entries published strictly after ``epoch``, in canonical order."""
        # Every sequence is > -1, so this finds the first entry with a
        # strictly greater epoch.
        return self._entries[bisect_right(self._order, (epoch, float("inf"))):]

    def entries_for(self, digests: Iterable[int]) -> list[PublishedTransaction]:
        """The held entries among ``digests``, in digest order."""
        index = self._digest_index()
        found = (index.get(digest) for digest in sorted(digests))
        return [entry for entry in found if entry is not None]


def validate_publication_batch(
    transactions: list[Transaction],
    epoch: int,
    publisher: str,
    latest_epoch: int,
    already_published,
) -> None:
    """The shared publication contract, checked before anything is appended.

    Rejects the whole batch (epoch regression, duplicate ids — within the
    batch or against ``already_published(txn_id)`` — and foreign
    transactions) so that publication is atomic for every store backend.
    """
    if epoch < latest_epoch:
        raise PublicationError(
            f"cannot archive at epoch {epoch}: the store is already at "
            f"epoch {latest_epoch} and the log is epoch-ordered"
        )
    batch_ids: set[str] = set()
    for transaction in transactions:
        if transaction.txn_id in batch_ids or already_published(transaction.txn_id):
            raise PublicationError(
                f"transaction {transaction.txn_id!r} was already published"
            )
        if transaction.peer != publisher:
            raise PublicationError(
                f"peer {publisher!r} cannot publish transaction "
                f"{transaction.txn_id!r} owned by {transaction.peer!r}"
            )
        batch_ids.add(transaction.txn_id)


class UpdateStore:
    """Append-only, epoch-ordered archive of published transactions.

    ``generation`` counts the archives: a reader that saw generation g has
    seen everything the store can serve until it moves.
    """

    def __init__(self) -> None:
        self._log = EpochLog()
        self._generation = 0

    @property
    def generation(self) -> int:
        return self._generation

    # -- publication ------------------------------------------------------------
    def archive(
        self, transactions: Iterable[Transaction], epoch: int, publisher: str
    ) -> list[PublishedTransaction]:
        """Archive a batch of transactions published at ``epoch``.

        The batch is validated as a whole first: either every transaction is
        archived or none is.
        """
        batch = list(transactions)
        validate_publication_batch(
            batch, epoch, publisher, self._log.latest_epoch(),
            lambda txn_id: txn_id in self._log,
        )
        self._generation += 1
        archived = []
        for transaction in batch:
            stamped = transaction.with_epoch(epoch)
            entry = PublishedTransaction(
                transaction=stamped,
                epoch=epoch,
                sequence=len(self._log),
                publisher=publisher,
            )
            self._log.add(entry)
            archived.append(entry)
        return archived

    # -- retrieval ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._log)

    def all_entries(self) -> list[PublishedTransaction]:
        return self._log.entries()

    def transactions(self) -> list[Transaction]:
        return [entry.transaction for entry in self._log]

    def entry(self, txn_id: str) -> PublishedTransaction:
        entry = self._log.get(txn_id)
        if entry is None:
            raise PublicationError(f"transaction {txn_id!r} was never published")
        return entry

    def contains(self, txn_id: str) -> bool:
        return txn_id in self._log

    __contains__ = contains

    def published_since(self, epoch: int) -> list[PublishedTransaction]:
        """Entries published strictly after ``epoch``."""
        return self._log.since(epoch)

    def latest_epoch(self) -> int:
        return self._log.latest_epoch()

    def antecedents_map(self) -> dict[str, frozenset[str]]:
        """``{txn_id: antecedents}`` for every archived transaction."""
        return {
            entry.txn_id: entry.transaction.antecedents for entry in self._log
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UpdateStore({len(self._log)} transactions, epoch {self.latest_epoch()})"
