"""Logical clocks and reconciliation epochs.

Every update-exchange operation (a publication or a reconciliation) advances
a system-wide logical clock: the overall state of data in the system has
changed and future updates should be causally related to previously accepted
ones.  Peers remember the epoch up to which they have reconciled so that the
next reconciliation only needs to consider newer publications.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LogicalClock:
    """A monotonically increasing counter of update-exchange operations."""

    _value: int = 0

    @property
    def value(self) -> int:
        return self._value

    def tick(self) -> int:
        """Advance the clock and return the new epoch."""
        self._value += 1
        return self._value

    def __int__(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogicalClock({self._value})"


@dataclass
class PeerClockState:
    """Per-peer bookkeeping of how far it has published and reconciled."""

    last_published_epoch: int = 0
    last_reconciled_epoch: int = 0

    def record_publication(self, epoch: int) -> None:
        self.last_published_epoch = max(self.last_published_epoch, epoch)

    def record_reconciliation(self, epoch: int) -> None:
        self.last_reconciled_epoch = max(self.last_reconciled_epoch, epoch)
