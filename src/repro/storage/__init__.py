"""Relational storage substrate for peer instances.

Each CDSS peer owns a fully autonomous, editable local database instance.
The paper's implementation stores these in a commercial RDBMS; this package
provides two interchangeable backends behind one protocol:

* :class:`~repro.storage.memory.MemoryInstance` — an in-memory instance used
  by the simulators, tests and benchmarks, and
* :class:`~repro.storage.sqlite_backend.SQLiteInstance` — an embedded SQLite
  instance (standard-library SQLite) demonstrating durable storage with the same
  interface.

:mod:`repro.storage.update_log` persists the per-peer transaction log that
publication reads from.
"""

from .interface import StorageBackend
from .memory import MemoryInstance
from .sqlite_backend import SQLiteInstance
from .update_log import UpdateLog

__all__ = ["MemoryInstance", "SQLiteInstance", "StorageBackend", "UpdateLog"]
