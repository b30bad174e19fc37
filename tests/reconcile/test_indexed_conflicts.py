"""Differential test: key-indexed conflict detection vs the all-pairs scan.

``ScanReconciler`` below is the reconciler's greedy selection as it was
before conflict detection was indexed: it walks every accepted transaction
for every group, pairs same-priority groups all-against-all, recomputes the
antecedent closures inside those loops and re-derives the deferred set from
the whole decision history.  It lives here as a reference oracle only; on
seeded candidate pools the indexed reconciler must take the same decisions,
report the same results and leave the same instance behind.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.core.peer import Peer
from repro.core.schema import PeerSchema
from repro.core.trust import TrustPolicy
from repro.core.updates import Update, conflicting
from repro.errors import ReconciliationError
from repro.exchange.translation import CandidateTransaction
from repro.reconcile.algorithm import Reconciler
from repro.reconcile.candidates import antecedent_closure
from repro.reconcile.decisions import Decision
from repro.reconcile.resolution import resolve_conflict


def updates_conflict(left, right, schema: PeerSchema) -> bool:
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


class ScanReconciler(Reconciler):
    """Reference oracle: greedy selection by full scans (the pre-index code)."""

    def _greedy_select(self, groups, memo, result):
        pool = memo.pool
        needed_as_antecedent = set()
        for group in groups:
            if group.priority > 0:
                needed_as_antecedent.update(member.txn_id for member in group.members[:-1])
        viable = []
        for group in groups:
            if group.priority > 0:
                viable.append(group)
            elif group.txn_id not in needed_as_antecedent:
                self._state.record_reject(group.txn_id)
                result.rejected.append(group.txn_id)

        deferred_ids = {
            txn_id
            for txn_id, decision in self._state.decisions.items()
            if decision is Decision.DEFERRED
        }
        accepted_groups = []
        by_priority = defaultdict(list)
        for group in viable:
            by_priority[group.priority].append(group)

        for priority in sorted(by_priority, reverse=True):
            level = sorted(by_priority[priority], key=lambda group: group.txn_id)
            survivors = []
            for group in level:
                if group.txn_id in deferred_ids:
                    continue
                if deferred_ids and antecedent_closure(group.candidate, pool) & deferred_ids:
                    self._defer_group(group, result, deferred_ids)
                    continue
                if self._scan_accepted(group, accepted_groups):
                    self._state.record_reject(group.txn_id)
                    result.rejected.append(group.txn_id)
                    continue
                survivors.append(group)

            deferred_here = set()
            for conflict_set in self._scan_same_priority(survivors):
                ids = sorted(group.txn_id for group in conflict_set)
                self._state.add_deferred_conflict(ids, priority)
                result.conflicts_deferred += 1
                for group in conflict_set:
                    if group.txn_id not in deferred_here:
                        self._defer_group(group, result, deferred_ids)
                        deferred_here.add(group.txn_id)

            for group in survivors:
                if group.txn_id in deferred_here:
                    continue
                if self._scan_accepted(group, accepted_groups):
                    self._state.record_reject(group.txn_id)
                    result.rejected.append(group.txn_id)
                    continue
                self._accept_group(group, result)
                accepted_groups.append(group)

    def _scan_pair(self, left, right) -> bool:
        pool = {member.txn_id: member for member in left.members + right.members}
        for left_member in left.members:
            left_closure = antecedent_closure(left_member, pool)
            for right_member in right.members:
                if left_member.txn_id == right_member.txn_id:
                    continue
                right_closure = antecedent_closure(right_member, pool)
                if left_member.txn_id in right_closure or right_member.txn_id in left_closure:
                    continue
                if updates_conflict(left_member.updates, right_member.updates, self._peer.schema):
                    return True
        return False

    def _scan_accepted(self, group, accepted_groups) -> bool:
        for accepted in accepted_groups:
            if self._scan_pair(group, accepted):
                return True
        candidate_pool = {member.txn_id: member for member in group.members}
        closure = antecedent_closure(group.candidate, candidate_pool) | group.member_ids()
        for txn_id, updates in self._state.accepted_updates.items():
            if txn_id in closure:
                continue
            for member in group.members:
                if txn_id in antecedent_closure(member, candidate_pool):
                    continue
                if updates_conflict(member.updates, list(updates), self._peer.schema):
                    return True
        return False

    def _scan_same_priority(self, groups):
        conflict_edges = defaultdict(set)
        by_id = {group.txn_id: group for group in groups}
        ids = sorted(by_id)
        for index, left_id in enumerate(ids):
            for right_id in ids[index + 1 :]:
                if self._scan_pair(by_id[left_id], by_id[right_id]):
                    conflict_edges[left_id].add(right_id)
                    conflict_edges[right_id].add(left_id)
        components = []
        seen = set()
        for txn_id in ids:
            if txn_id in seen or txn_id not in conflict_edges:
                continue
            component = []
            frontier = [txn_id]
            while frontier:
                current = frontier.pop()
                if current in seen:
                    continue
                seen.add(current)
                component.append(current)
                frontier.extend(conflict_edges[current] - seen)
            components.append([by_id[member] for member in sorted(component)])
        return components


# -- seeded candidate pools ------------------------------------------------------

#: The instance holds relation ``X``, the peer's schema does not: updates on
#: ``X`` are applied on acceptance but skipped by conflict detection.
STORED = PeerSchema.build(
    "Stored",
    {"R": ["k", "v"], "S": ["a", "b", "c"], "X": ["k", "v"]},
    {"R": ["k"], "S": ["a", "b"], "X": ["k"]},
)
SCHEMA = PeerSchema.build(
    "Sigma", {"R": ["k", "v"], "S": ["a", "b", "c"]}, {"R": ["k"], "S": ["a", "b"]}
)
ORIGINS = {"Alaska": 2, "Beijing": 2, "Dresden": 1, "Eve": 0}


def make_peer() -> Peer:
    peer = Peer("Crete", STORED, TrustPolicy.trust_only("Crete", ORIGINS, others=1))
    peer.schema = SCHEMA
    return peer


def random_tuple(rng: random.Random, relation: str) -> tuple:
    # Few keys and fewer values, so that transactions collide often.
    if relation == "S":
        return (rng.randrange(5), rng.randrange(4), rng.randrange(3))
    return (rng.randrange(16), rng.randrange(3))


def random_update(rng: random.Random, origin: str) -> Update:
    relation = rng.choice(["R", "R", "S", "S", "X"])
    values = random_tuple(rng, relation)
    kind = rng.random()
    if kind < 0.55:
        return Update.insert(relation, values, origin=origin)
    if kind < 0.75:
        return Update.delete(relation, values, origin=origin)
    # A modification may move the tuple to another key.
    return Update.modify(relation, values, random_tuple(rng, relation), origin=origin)


def random_batch(
    rng: random.Random, round_index: int, published: list[str]
) -> list[CandidateTransaction]:
    batch = []
    for index in range(rng.randint(3, 9)):
        txn_id = f"r{round_index:02d}t{index}"
        origin = rng.choice(["Alaska", "Alaska", "Beijing", "Beijing", "Dresden", "Dresden", "Eve"])
        antecedents = set()
        # Chains: depend on earlier transactions of this batch, of earlier
        # rounds (whatever was decided about them), or on one never seen.
        for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
            antecedents.add(rng.choice(published[-12:]) if published else "ghost")
        if rng.random() < 0.02:
            antecedents.add(f"ghost{round_index}")
        updates = tuple(random_update(rng, origin) for _ in range(rng.randint(1, 3)))
        batch.append(
            CandidateTransaction(
                txn_id=txn_id,
                origin=origin,
                target_peer="Crete",
                updates=updates,
                antecedents=frozenset(antecedents),
            )
        )
        published.append(txn_id)
    return batch


def observable(reconciler: Reconciler) -> dict:
    state = reconciler.state
    return {
        "decisions": dict(state.decisions),
        "accepted_updates": dict(state.accepted_updates),
        "undecided": sorted(state.undecided),
        "deferred": sorted(state.deferred_ids()),
        "conflicts": [
            (conflict.conflict_id, sorted(conflict.txn_ids), conflict.priority, conflict.resolved)
            for conflict in state.deferred_conflicts
        ],
        "instance": reconciler.peer.snapshot(),
    }


@pytest.mark.parametrize("seed", range(100))
def test_indexed_decisions_equal_the_full_scan(seed):
    rng = random.Random(seed)
    indexed = Reconciler(make_peer())
    scanned = ScanReconciler(make_peer())
    published: list[str] = []
    known = set()
    for round_index in range(12):
        batch = random_batch(rng, round_index, published)
        known.update(candidate.txn_id for candidate in batch if rng.random() < 0.97)
        ours = indexed.reconcile(batch, known_transactions=known, epoch=round_index)
        reference = scanned.reconcile(batch, known_transactions=known, epoch=round_index)
        assert ours.to_dict() == reference.to_dict(), (seed, round_index)
        assert observable(indexed) == observable(scanned), (seed, round_index)

        # Accepts made outside the reconciler must reach the index as well.
        open_conflicts = indexed.state.open_conflicts()
        if open_conflicts and rng.random() < 0.6:
            winner = rng.choice(sorted(rng.choice(open_conflicts).txn_ids))
            if winner not in indexed.state.undecided:
                # Rejected since the deferral (an antecedent lost a later
                # resolution): neither side lets it win.
                for side in (indexed, scanned):
                    with pytest.raises(ReconciliationError, match="no longer awaiting"):
                        resolve_conflict(side.peer, side.state, winner)
                continue
            resolved = resolve_conflict(indexed.peer, indexed.state, winner)
            expected = resolve_conflict(scanned.peer, scanned.state, winner)
            assert (resolved.accepted, resolved.rejected) == (expected.accepted, expected.rejected)
            assert observable(indexed) == observable(scanned), (seed, round_index)


def test_the_pools_reach_every_outcome():
    """The generator above is only a test if it exercises the branches."""
    totals = defaultdict(int)
    resolutions = 0
    for seed in range(40):
        rng = random.Random(seed)
        reconciler = Reconciler(make_peer())
        published: list[str] = []
        known = set()
        for round_index in range(12):
            batch = random_batch(rng, round_index, published)
            known.update(candidate.txn_id for candidate in batch if rng.random() < 0.97)
            result = reconciler.reconcile(batch, known_transactions=known)
            for outcome, count in result.summary().items():
                totals[outcome] += count
            open_conflicts = reconciler.state.open_conflicts()
            if open_conflicts and rng.random() < 0.6:
                winner = rng.choice(sorted(rng.choice(open_conflicts).txn_ids))
                resolutions += bool(resolve_conflict(reconciler.peer, reconciler.state, winner))
    assert all(totals[outcome] > 20 for outcome in ("accepted", "rejected", "deferred", "pending"))
    assert totals["conflicts_deferred"] > 20 and resolutions > 20


@pytest.mark.parametrize("reconciler_class", [Reconciler, ScanReconciler])
def test_group_whose_own_antecedents_conflict_is_rejected(reconciler_class):
    """The one case the accepted-state check cannot see: the accepted
    transaction is an antecedent of the group, so it is skipped there, but
    another member of the group conflicts with it."""

    def insert(txn_id, origin, values, antecedents=()):
        return CandidateTransaction(
            txn_id, origin, "Crete", (Update.insert("R", values, origin=origin),),
            antecedents=frozenset(antecedents),
        )

    reconciler = reconciler_class(make_peer())
    result = reconciler.reconcile(
        [
            insert("a1", "Alaska", (1, 0)),
            insert("a2", "Dresden", (1, 1)),
            insert("c", "Dresden", (2, 0), antecedents={"a1", "a2"}),
        ]
    )
    assert result.accepted == ["a1"]
    assert sorted(result.rejected) == ["a2", "c"]
    assert reconciler.peer.tuples("R") == {(1, 0)}


@pytest.mark.parametrize("reconciler_class", [Reconciler, ScanReconciler])
def test_a_transaction_never_conflicts_with_itself(reconciler_class):
    """Two same-priority groups share a pending antecedent whose own updates
    clash on one key (a delete and an insert of key 1).  The shared member
    meets itself in the key index, and that is no conflict: both groups are
    accepted, nothing is deferred."""
    reconciler = reconciler_class(make_peer())
    base = CandidateTransaction(
        "w", "Alaska", "Crete", (Update.insert("R", (1, 0), origin="Alaska"),)
    )
    assert reconciler.reconcile([base]).accepted == ["w"]
    rekey = CandidateTransaction(
        "x",
        "Alaska",
        "Crete",
        (
            Update.delete("R", (1, 0), origin="Alaska"),
            Update.insert("R", (1, 1), origin="Alaska"),
        ),
        antecedents=frozenset({"w"}),
    )

    def dependent(txn_id, origin, values):
        return CandidateTransaction(
            txn_id, origin, "Crete", (Update.insert("S", values, origin=origin),),
            antecedents=frozenset({"x"}),
        )

    result = reconciler.reconcile(
        [dependent("y", "Alaska", (1, 1, 1)), dependent("z", "Beijing", (2, 2, 2)), rekey]
    )
    assert sorted(result.accepted) == ["x", "y", "z"]
    assert result.deferred == [] and result.rejected == []
    assert reconciler.state.open_conflicts() == []
    assert reconciler.peer.tuples("R") == {(1, 1)}


def test_index_follows_a_changed_schema_and_a_re_recorded_accept():
    peer = make_peer()
    reconciler = Reconciler(peer)
    first = CandidateTransaction(
        "t1", "Alaska", "Crete", (Update.insert("X", (1, 1), origin="Alaska"),)
    )
    reconciler.reconcile([first])
    clash = CandidateTransaction(
        "t2", "Beijing", "Crete", (Update.insert("X", (1, 2), origin="Beijing"),)
    )
    # Outside the schema the two do not conflict ...
    assert reconciler.state.accepted_by_key(peer.schema) == {}
    # ... under a schema that declares X they do.
    peer.schema = STORED
    assert reconciler.reconcile([clash]).rejected == ["t2"]

    # Re-recording an accept replaces what the index holds for the transaction.
    replacement = CandidateTransaction(
        "t1", "Alaska", "Crete", (Update.insert("X", (2, 1), origin="Alaska"),)
    )
    reconciler.state.record_accept(replacement)
    assert list(reconciler.state.accepted_by_key(peer.schema)) == [("X", (2,))]
