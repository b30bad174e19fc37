"""Conflict detection between candidate transactions.

Two transactions conflict when, for some relation, they make incompatible
assertions about the same key: different resulting tuples for one key, or one
deleting an entity the other (re)asserts.  Conflicts are what reconciliation
arbitrates using trust priorities; equal-priority conflicts are deferred to
the administrator.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..core.schema import PeerSchema
from ..core.updates import Update, conflicting
from ..exchange.translation import CandidateTransaction


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


def updates_conflict(
    left: Sequence[Update], right: Sequence[Update], schema: PeerSchema
) -> bool:
    """Do any two updates from the two sequences conflict?"""
    for left_update in left:
        if not schema.has_relation(left_update.relation):
            continue
        relation_schema = schema.relation(left_update.relation)
        for right_update in right:
            if right_update.relation != left_update.relation:
                continue
            if conflicting(left_update, right_update, relation_schema):
                return True
    return False


def conflicts_between(
    left: CandidateTransaction, right: CandidateTransaction, schema: PeerSchema
) -> bool:
    """Do two candidate transactions (from different origins) conflict?

    A transaction never conflicts with itself, and two candidates that are
    translations of the same original transaction never conflict.
    """
    if left.txn_id == right.txn_id:
        return False
    return updates_conflict(left.updates, right.updates, schema)


def conflicts_with_state(
    candidate: CandidateTransaction,
    accepted_updates: Iterable[Update],
    schema: PeerSchema,
) -> bool:
    """Does a candidate conflict with updates already accepted at this peer?

    Re-asserting exactly what is already accepted is not a conflict; only a
    *different* value for an already-decided key is.
    """
    return updates_conflict(candidate.updates, list(accepted_updates), schema)
