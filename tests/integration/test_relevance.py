"""Reconciliation at a peer costs what touches that peer.

A star of spokes, each mapped into ``Hub``: every published transaction
reaches Hub's relation and nobody else's.  Hub translates and decides each
one; a spoke is *offered* all of them (the reports say so) but translates
none, stores no decision row for them and still answers ``ACCEPTED``.  Cost
is counted, not timed: calls of ``UpdateTranslator.translate`` repeat exactly
from run to run.
"""

from __future__ import annotations

import pytest

from repro import CDSS
from repro.errors import PublicationError
from repro.exchange.translation import UpdateTranslator
from repro.reconcile.algorithm import Reconciler
from repro.reconcile.decisions import Decision

SPOKES = [f"S{index}" for index in range(8)]
ROUNDS = 5  # every spoke publishes one transaction per round


def build_star() -> CDSS:
    lines = ["network star"]
    for name in ["Hub", *SPOKES]:
        lines += [f"peer {name}", "  relation R(a, b) key(a)", "  trust * 5"]
    for spoke in SPOKES:
        lines.append(f"mapping [M_{spoke}] @Hub.R(a, b) :- @{spoke}.R(a, b).")
    return CDSS.from_spec("\n".join(lines))


def count_translations(monkeypatch) -> list[str]:
    """Record the target peer of every ``UpdateTranslator.translate`` call."""
    targets: list[str] = []
    translate = UpdateTranslator.translate

    def counted(self, transaction, delta):
        targets.append(self.target_peer)
        return translate(self, transaction, delta)

    monkeypatch.setattr(UpdateTranslator, "translate", counted)
    return targets


def test_a_star_translates_and_stores_only_what_touches_each_peer(monkeypatch):
    cdss = build_star()
    translated_for = count_translations(monkeypatch)

    published: dict[str, list[str]] = {spoke: [] for spoke in SPOKES}
    offered = 0
    for round_index in range(ROUNDS):
        for key, spoke in enumerate(SPOKES):
            row = (round_index * len(SPOKES) + key, f"{spoke}-{round_index}")
            published[spoke].append(cdss.peer(spoke).insert("R", row).txn_id)
        report = cdss.sync()
        assert report.converged
        offered += sum(round_.candidates_considered for round_ in report.rounds)
    total = ROUNDS * len(SPOKES)

    # Every peer was offered every transaction, as the reports have always
    # said; only Hub had anything translated (9 * total before).
    assert offered == total * (len(SPOKES) + 1)
    assert len(translated_for) <= 2 * total
    assert set(translated_for) == {"Hub"}

    hub = cdss.reconciliation_state("Hub")
    assert len(hub.decisions) == total
    assert len(cdss.peer("Hub").tuples("R")) == total
    for spoke in SPOKES:
        state = cdss.reconciliation_state(spoke)
        assert state.decisions == {}
        assert state.summary()["accepted"] == total
        other = SPOKES[(SPOKES.index(spoke) + 1) % len(SPOKES)]
        assert state.decision(published[spoke][0]) is Decision.ACCEPTED  # its own
        assert state.decision(published[other][0]) is Decision.ACCEPTED  # vacuous here
        assert state.is_decided(published[other][-1])
        assert state.decision("never-published") is Decision.PENDING


def test_an_idle_peer_is_not_handed_to_the_reconciler(monkeypatch):
    """A spoke has nothing to translate or decide: it reconciles every
    round (reports, watermark and counters say so) without a
    ``Reconciler.reconcile`` call.  Hub decides once per sync, in the round
    that offers it the new transactions."""
    cdss = build_star()
    decided_at: list[str] = []
    reconcile = Reconciler.reconcile

    def counted(self, *args, **kwargs):
        decided_at.append(self.peer.name)
        return reconcile(self, *args, **kwargs)

    monkeypatch.setattr(Reconciler, "reconcile", counted)
    for round_index in range(ROUNDS):
        decided_at.clear()
        for key, spoke in enumerate(SPOKES):
            cdss.peer(spoke).insert("R", (round_index * len(SPOKES) + key, spoke))
        report = cdss.sync()
        assert report.round_count == 2
        assert all(len(round_.reconciled) == len(SPOKES) + 1 for round_ in report.rounds)
        assert decided_at.count("Hub") <= 1 and set(decided_at) <= {"Hub"}
        latest = cdss.store.latest_epoch()
        for spoke in SPOKES:
            assert cdss.peer(spoke).clock.last_reconciled_epoch == latest
    assert cdss.metrics_snapshot()["sync.reconciliations"] == 2 * ROUNDS * (len(SPOKES) + 1)
    assert len(cdss.peer("Hub").tuples("R")) == ROUNDS * len(SPOKES)


def test_a_transaction_is_pending_until_it_has_been_offered():
    cdss = build_star()
    txn_id = cdss.peer("S0").insert("R", (1, "x")).txn_id
    bystander = cdss.reconciliation_state("S1")
    assert bystander.decision(txn_id) is Decision.PENDING  # not published
    cdss.publish("S0")
    assert bystander.decision(txn_id) is Decision.PENDING  # published, not offered
    assert bystander.summary()["accepted"] == 0

    outcome = cdss.reconcile("S1")
    assert outcome.candidates_considered == 1 and outcome.accepted == []
    assert bystander.decision(txn_id) is Decision.ACCEPTED
    assert bystander.summary()["accepted"] == 1 and bystander.decisions == {}
    # Hub has not reconciled yet: the transaction touches it, so no rule applies.
    assert cdss.reconciliation_state("Hub").decision(txn_id) is Decision.PENDING
    assert cdss.reconcile("Hub").accepted == [txn_id]


def test_an_archived_but_never_exchanged_transaction_is_still_named():
    cdss = build_star()
    cdss.engine  # built before the archive is written behind its back
    rogue = cdss.peer("S0").new_transaction("rogue").insert("R", (1, "x")).build()
    cdss.store.archive([rogue], cdss.clock.tick(), "S0")
    with pytest.raises(PublicationError, match="'rogue' is archived but was never exchanged"):
        cdss.reconcile("S1")
