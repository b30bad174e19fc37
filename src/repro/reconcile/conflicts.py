"""Conflict keys for candidate transactions.

Two transactions conflict when, for some relation, they make incompatible
assertions about the same key: different resulting tuples for one key, or one
deleting an entity the other (re)asserts.  Conflicts are what reconciliation
arbitrates using trust priorities; equal-priority conflicts are deferred to
the administrator.  Conflict detection (the reconciler's group index and the
accepted-update index of :class:`~repro.reconcile.decisions.ReconciliationState`)
buckets updates by :func:`conflict_key`, so only updates to one key are ever
compared.
"""

from __future__ import annotations

from typing import Optional

from ..core.schema import PeerSchema
from ..core.updates import Update


#: The bucket an update can conflict in: its relation and the key it targets.
ConflictKey = tuple[str, tuple]


def conflict_key(update: Update, schema: PeerSchema) -> Optional[ConflictKey]:
    """The ``(relation, key)`` an update competes for, or ``None`` when its
    relation lies outside ``schema`` (such updates never conflict).

    :func:`~repro.core.updates.conflicting` is only ever true for two updates
    with equal conflict keys, so bucketing by this key is an exact prefilter.
    """
    if not schema.has_relation(update.relation):
        return None
    return (update.relation, update.key_of(schema.relation(update.relation)))
