"""Differential oracle: offer everything vs. offer what touches the peer.

``CDSS.reconcile`` used to translate every archived entry past the
watermark for every peer and hand all of them to the ``Reconciler``, which
stored a vacuous ``ACCEPTED`` row for each one that originated at the peer
or translated to nothing there.  It now builds candidates from the engine's
per-peer index and answers the vacuous accepts by rule.  The old loop lives
on here, as :func:`offer_everything`, and every scenario below runs twice —
once on each path — and must end in the same instances, decision summaries,
per-transaction decisions, open conflicts and sync reports.
"""

from __future__ import annotations

import random

import pytest

from repro import CDSS
from repro.core.mapping import join_mapping
from repro.core.system import ReconcileOutcome
from repro.errors import PublicationError
from repro.p2p.network import LatencyModel
from repro.p2p.store import UpdateStore
from repro.reconcile.algorithm import Reconciler
from repro.reconcile.decisions import Decision
from repro.workloads.bioinformatics import build_figure2_network
from repro.workloads.simulation import (
    RandomWorkload,
    SimulationConfig,
    generate_network,
    simulated_system,
)

from message_rows import recorded_rows


def offer_everything(cdss: CDSS) -> CDSS:
    """Put ``cdss`` on the reconcile loop the relevance filter replaced.

    Every entry past the watermark is translated and reaches the
    ``Reconciler``; no implicit-accept rule is installed, so every decision
    (the vacuous ones included) is a stored row.
    """
    for name in cdss.catalog.peer_names():
        cdss.reconciliation_state(name).implicit_rule = None

    def reconcile_inner(peer, peer_name, engine, watermark):
        if cdss.gossip is not None:
            cdss.gossip.catch_up(peer_name)
            entries = cdss.gossip.entries_since(peer_name, watermark)
        else:
            entries = cdss.store.published_since(watermark)
        translator = cdss._translators[peer_name]
        candidates = []
        for entry in entries:
            if not engine.has_processed(entry.txn_id):
                raise PublicationError(
                    f"transaction {entry.txn_id!r} is archived but was never exchanged"
                )
            candidates.append(
                translator.translate(entry.transaction, engine.delta_for(entry.txn_id))
            )
        epoch = cdss.clock.tick()
        result = cdss._reconcilers[peer_name].reconcile(
            candidates,
            known_transactions=cdss.store,
            provenance=engine.provenance if cdss.config.exchange.track_provenance else None,
            epoch=epoch,
        )
        peer.clock.record_reconciliation(cdss.store.latest_epoch())
        metrics = cdss.obs.metrics
        metrics.counter_add("sync.reconciliations", 1, label=peer_name)
        metrics.counter_add("sync.candidates_considered", len(candidates), label=peer_name)
        return ReconcileOutcome(
            peer=peer_name, epoch=epoch, candidates_considered=len(candidates), result=result
        )

    cdss._reconcile_inner = reconcile_inner
    return cdss


class Pair:
    """The same network twice: relevance-filtered, and offering everything.

    Both run under one seeded latency model, so the reconcile downlinks and
    gossip sessions they send land on the virtual clock and in the rows
    each network accounts, which must agree as well.
    """

    def __init__(self, build) -> None:
        self.filtered: CDSS = build()
        self.oracle: CDSS = offer_everything(build())
        for cdss in (self.filtered, self.oracle):
            cdss.network.set_latency_model(LatencyModel(seed=11))
        self.rows = [recorded_rows(cdss.network) for cdss in (self.filtered, self.oracle)]
        self.txn_ids: list[str] = []

    def both(self, action):
        """Run ``action(cdss)`` on both; their results must agree too."""
        results = [_plain(action(cdss)) for cdss in (self.filtered, self.oracle)]
        assert results[0] == results[1]
        return results[0]

    def commit(self, peer: str, build) -> str:
        """Commit ``build(builder)`` at ``peer`` on both; returns the txn id."""
        txn_id = f"{peer}-{len(self.txn_ids)}"
        for cdss in (self.filtered, self.oracle):
            builder = cdss.peer(peer).new_transaction(txn_id)
            build(builder)
            cdss.peer(peer).commit(builder)
        self.txn_ids.append(txn_id)
        return txn_id

    def assert_same_state(self, txn_ids=None) -> None:
        """Both paths hold the same state; ``decision()`` is compared over
        ``txn_ids`` (default: everything committed)."""
        for name in self.filtered.catalog.peer_names():
            assert self.filtered.peer_snapshot(name) == self.oracle.peer_snapshot(name), name
            ours = self.filtered.reconciliation_state(name)
            theirs = self.oracle.reconciliation_state(name)
            assert ours.summary() == theirs.summary(), name
            for txn_id in self.txn_ids if txn_ids is None else txn_ids:
                assert ours.decision(txn_id) is theirs.decision(txn_id), (name, txn_id)
                assert ours.is_decided(txn_id) == theirs.is_decided(txn_id), (name, txn_id)
            assert _conflicts(ours) == _conflicts(theirs), name
            # The filtered path stores a subset of the oracle's rows: the
            # difference is exactly what the rule answers.
            assert ours.decisions.items() <= theirs.decisions.items(), name
            assert len(theirs.decisions) - len(ours.decisions) == ours.implicit_accepts
        # What the two paths did on the wire and told the metrics registry.
        assert self.filtered.metrics_snapshot() == self.oracle.metrics_snapshot()
        assert self.filtered.network.clock.now == self.oracle.network.clock.now
        assert self.rows[0] == self.rows[1]

    def sync(self, **kwargs) -> dict:
        report = self.both(lambda cdss: cdss.sync(**kwargs))
        self.assert_same_state()
        return report


def _plain(result):
    """Reports and outcomes compare through their plain-data form."""
    if hasattr(result, "to_dict"):
        return result.to_dict()
    if hasattr(result, "__dict__"):
        return vars(result)
    return result


def _conflicts(state) -> list[tuple]:
    return [
        (conflict.conflict_id, conflict.txn_ids, conflict.priority, conflict.resolved,
         conflict.winner)
        for conflict in state.deferred_conflicts
    ]


# -- the Figure-2 conflict stream ------------------------------------------------

#: What Alaska and Beijing commit in a step, by ``step % 10``: Insert a triple,
#: Modify or Delete the oldest S tuple still held, or insert their half of a
#: Conflicting pair (one key, two sequences).
KINDS = "IIIMIDIICI"


def test_figure2_conflict_stream_agrees_with_offering_everything():
    pair = Pair(lambda: build_figure2_network().cdss)
    held = {"Alaska": [], "Beijing": []}
    for step in range(30):
        kind = KINDS[step % len(KINDS)]
        for offset, name in enumerate(("Alaska", "Beijing")):
            oid, pid = 10 * step + offset, 10 * step + offset + 5
            if kind == "C":
                oid, pid = 10 * step, 10 * step + 5  # both peers claim one key
            sequence = (oid, pid, f"{name}{step}")
            if kind in "IC":
                pair.commit(
                    name,
                    lambda builder: builder.insert("O", (f"organism{oid}", oid))
                    .insert("P", (f"protein{pid}", pid))
                    .insert("S", sequence),
                )
                if kind == "I":
                    held[name].append(sequence)
            elif kind == "M":
                old = held[name].pop(0)
                held[name].append((old[0], old[1], f"{name}{step}"))
                pair.commit(name, lambda builder: builder.modify("S", old, held[name][-1]))
            else:
                old = held[name].pop(0)
                pair.commit(name, lambda builder: builder.delete("S", old))
        pair.sync()
    states = [pair.filtered.reconciliation_state(name) for name in ("Crete", "Dresden")]
    assert any(state.open_conflicts() for state in states)  # the stream did conflict
    assert any(state.summary()["rejected"] for state in states)


# -- a chain whose middle transaction is vacuous at the reconciling peer ---------

def build_chain() -> CDSS:
    """``A -> B -> C`` on ``R``, ``A -> B`` on ``Q``, and ``D -> C`` on ``R``.

    ``Q`` never reaches C, so a transaction of A that only touches ``Q`` is
    vacuous there; D exists to publish the conflicting half of a pair at C.
    """
    lines = ["network chain"]
    for name in "ABCD":
        lines += [
            f"peer {name}",
            "  relation R(a, b) key(a)",
            "  relation Q(a, b) key(a)",
            "  trust * 5",
        ]
    lines += [
        "mapping [M_AB_R] @B.R(a, b) :- @A.R(a, b).",
        "mapping [M_BC_R] @C.R(a, b) :- @B.R(a, b).",
        "mapping [M_AB_Q] @B.Q(a, b) :- @A.Q(a, b).",
        "mapping [M_DC_R] @C.R(a, b) :- @D.R(a, b).",
    ]
    return CDSS.from_spec("\n".join(lines))


def commit_chain(pair: Pair, key: int) -> tuple[str, str, str]:
    """At A: insert ``R``, insert ``Q``, then modify both in one transaction,
    so the third depends on the first and on the (at C vacuous) second."""
    first = pair.commit("A", lambda builder: builder.insert("R", (key, "r")))
    middle = pair.commit("A", lambda builder: builder.insert("Q", (key, "q")))
    last = pair.commit(
        "A",
        lambda builder: builder.modify("R", (key, "r"), (key, "r2")).modify(
            "Q", (key, "q"), (key, "q2")
        ),
    )
    transaction = pair.filtered.peer("A").log.unpublished()[-1]
    assert transaction.antecedents == {first, middle}
    return first, middle, last


def test_chain_with_a_vacuous_middle_transaction():
    pair = Pair(build_chain)
    first, middle, last = commit_chain(pair, key=1)
    pair.sync()  # all three offered in one batch
    state = pair.filtered.reconciliation_state("C")
    assert state.decision(middle) is Decision.ACCEPTED and middle not in state.decisions
    assert state.decision(last) is Decision.ACCEPTED
    assert pair.filtered.peer("C").tuples("R") == {(1, "r2")}

    # The same chain one transaction per sync: the vacuous middle is decided
    # (by rule) before its dependent shows up.
    pair.commit("A", lambda builder: builder.insert("R", (2, "r")))
    pair.sync()
    middle = pair.commit("A", lambda builder: builder.insert("Q", (2, "q")))
    pair.sync()
    assert state.decision(middle) is Decision.ACCEPTED
    pair.commit(
        "A",
        lambda builder: builder.modify("R", (2, "r"), (2, "r2")).modify(
            "Q", (2, "q"), (2, "q2")
        ),
    )
    pair.sync()
    assert pair.filtered.peer("C").tuples("R") == {(1, "r2"), (2, "r2")}


def test_resolving_a_conflict_releases_a_dependent_with_a_vacuous_antecedent():
    pair = Pair(build_chain)
    first = pair.commit("A", lambda builder: builder.insert("R", (1, "r")))
    middle = pair.commit("A", lambda builder: builder.insert("Q", (1, "q")))
    rival = pair.commit("D", lambda builder: builder.insert("R", (1, "d")))
    pair.sync()
    # Once the pair is deferred, A builds on its own (at C undecided) insert.
    last = pair.commit(
        "A",
        lambda builder: builder.modify("R", (1, "r"), (1, "r2")).modify(
            "Q", (1, "q"), (1, "q2")
        ),
    )
    pair.sync()

    state = pair.filtered.reconciliation_state("C")
    assert [conflict.txn_ids for conflict in state.open_conflicts()] == [{first, rival}]
    assert state.decision(last) is Decision.DEFERRED  # behind the deferred insert
    assert state.undecided[last].antecedents == {first, middle}
    assert state.decision(middle) is Decision.ACCEPTED and middle not in state.decisions

    # The dependent's antecedents are the winner and the vacuous middle
    # transaction; the cascade must see the second as accepted although
    # the filtered path stores no row for it.
    resolution = pair.both(lambda cdss: cdss.resolve_conflict("C", first))
    assert resolution["accepted"] == [first, last]
    assert resolution["rejected"] == [rival]
    pair.assert_same_state()
    assert pair.filtered.peer("C").tuples("R") == {(1, "r2")}
    pair.sync()


def test_a_spoke_holding_a_deferred_conflict_is_still_reconciled(monkeypatch):
    """A spoke with nothing new past its watermark skips the reconciler,
    unless it holds undecided transactions: S0, fed by S1 and S2, defers
    their equal-priority conflict and keeps re-considering it while only S3
    publishes, until the administrator resolves it."""

    def build() -> CDSS:
        lines = ["network star"]
        for name in ("Hub", "S0", "S1", "S2", "S3"):
            lines += [f"peer {name}", "  relation R(a, b) key(a)", "  trust * 5"]
        for spoke in ("S0", "S1", "S2", "S3"):
            lines.append(f"mapping [M_{spoke}] @Hub.R(a, b) :- @{spoke}.R(a, b).")
        lines.append("mapping [M_S1_S0] @S0.R(a, b) :- @S1.R(a, b).")
        lines.append("mapping [M_S2_S0] @S0.R(a, b) :- @S2.R(a, b).")
        return CDSS.from_spec("\n".join(lines))

    pair = Pair(build)
    calls = {"S0": 0, "S3": 0}
    reconcile = Reconciler.reconcile

    def counted(self, *args, **kwargs):
        for name in calls:
            if self.state is pair.filtered.reconciliation_state(name):
                calls[name] += 1
        return reconcile(self, *args, **kwargs)

    monkeypatch.setattr(Reconciler, "reconcile", counted)
    left = pair.commit("S1", lambda builder: builder.insert("R", (1, "left")))
    right = pair.commit("S2", lambda builder: builder.insert("R", (1, "right")))
    pair.sync()
    state = pair.filtered.reconciliation_state("S0")
    assert [conflict.txn_ids for conflict in state.open_conflicts()] == [{left, right}]

    for key in (2, 3):
        calls.update(S0=0, S3=0)
        pair.commit("S3", lambda builder: builder.insert("R", (key, "bystander")))
        report = pair.sync()
        assert report["open_conflicts"]["S0"] == 1
        assert calls == {"S0": 2, "S3": 0}  # both rounds, over the undecided pair

    resolution = pair.both(lambda cdss: cdss.resolve_conflict("S0", left))
    assert resolution["accepted"] == [left] and resolution["rejected"] == [right]
    pair.assert_same_state()
    assert pair.filtered.peer("S0").tuples("R") == {(1, "left")}
    calls.update(S0=0)
    pair.sync()
    assert calls["S0"] == 0  # nothing left undecided: idle again


def test_a_read_that_misses_an_entry_offers_what_the_store_served():
    """When the store serves fewer entries than were exchanged, ``reconcile``
    offers what it was served, entry by entry, as the old loop did: the
    touching transaction the read missed is behind the watermark afterwards
    and stays ``PENDING`` where it would have been a candidate.  (Where it
    is vacuous the rule, which reads the watermark, calls it accepted; the
    old loop never decided it.  That is the one place the two differ.)"""

    class ShortReads(UpdateStore):
        hidden: frozenset = frozenset()

        def published_since(self, epoch):
            served = super().published_since(epoch)
            return [entry for entry in served if entry.txn_id not in self.hidden]

    spec = build_chain().to_spec()
    pair = Pair(lambda: CDSS.from_spec(spec, store_factory=lambda network, config: ShortReads()))
    missed = pair.commit("A", lambda builder: builder.insert("R", (1, "r")))
    served = pair.commit("A", lambda builder: builder.insert("R", (2, "r")))
    for cdss in (pair.filtered, pair.oracle):
        cdss.store.hidden = frozenset({missed})
    report = pair.both(lambda cdss: cdss.sync())
    assert report["rounds"][0]["candidates_considered"] == 4  # one entry, four peers
    for cdss in (pair.filtered, pair.oracle):
        cdss.store.hidden = frozenset()
    pair.both(lambda cdss: cdss.sync())
    pair.assert_same_state([served])
    for cdss in (pair.filtered, pair.oracle):
        for name in "BC":
            assert cdss.reconciliation_state(name).decision(missed) is Decision.PENDING
            assert cdss.peer(name).tuples("R") == {(2, "r")}


# -- a mapping added after the fact rebuilds the engine ----------------------------

def test_what_was_vacuous_stays_accepted_when_the_engine_is_rebuilt():
    """``add_mapping`` invalidates the exchange engine; the rebuilt one
    replays the archive under the new mappings, so a transaction that was
    vacuous at a peer may translate to something there afterwards.  The
    peer already accepted it: ``decision()`` keeps answering ``ACCEPTED``
    (the implicit accept becomes a stored row at the rebuild), it is not
    offered again, and later dependents build on it."""

    def build() -> CDSS:
        lines = ["network late"]
        for name in "AC":
            lines += [f"peer {name}", "  relation R(a, b) key(a)", "  trust * 5"]
        return CDSS.from_spec("\n".join(lines))

    pair = Pair(build)
    early = pair.commit("A", lambda builder: builder.insert("R", (1, "r")))
    pair.sync()
    state = pair.filtered.reconciliation_state("C")
    assert state.decision(early) is Decision.ACCEPTED and state.decisions == {}
    before = state.summary()

    for cdss in (pair.filtered, pair.oracle):
        cdss.add_mapping(join_mapping("M_AC", "A", "C", "R(a, b)", ["R(a, b)"]))
    for cdss in (pair.filtered, pair.oracle):  # both replay the archive now
        assert not cdss.engine.delta_for(early).is_empty_for("C")  # no longer vacuous
    assert state.decision(early) is Decision.ACCEPTED
    assert state.decisions == {early: Decision.ACCEPTED} and state.implicit_accepts == 0
    assert state.summary() == before
    pair.assert_same_state()

    late = pair.commit("A", lambda builder: builder.modify("R", (1, "r"), (1, "r2")))
    fresh = pair.commit("A", lambda builder: builder.insert("R", (2, "r")))
    pair.sync()
    assert state.decision(late) is Decision.ACCEPTED
    assert state.decision(fresh) is Decision.ACCEPTED
    assert pair.filtered.peer("C").tuples("R") == {(1, "r2"), (2, "r")}


# -- simulator seeds -----------------------------------------------------------------

#: The store/sync combinations the seeds cycle through.
SYSTEMS = [
    simulated_system(),
    simulated_system(store="distributed"),
    simulated_system(sync="gossip"),
    simulated_system(store="distributed", sync="gossip"),
]


@pytest.mark.parametrize("seed", range(1, 11))
def test_simulated_networks_agree_with_offering_everything(seed):
    config = SimulationConfig()
    rng = random.Random(seed)
    spec = generate_network(rng, config)
    workload = RandomWorkload(spec, config, rng)
    system = SYSTEMS[seed % len(SYSTEMS)]
    pair = Pair(lambda: CDSS.from_spec(spec, config=system))

    for epoch in range(1, config.epochs + 1):
        for command in workload.epoch_commands():
            def build(builder, command=command):
                if command.kind == "delete":
                    builder.delete(command.relation, command.values)
                elif command.kind == "modify":
                    builder.modify(command.relation, command.old_values, command.values)
                else:
                    builder.insert(command.relation, command.values)

            pair.commit(command.peer, build)
        offline = workload.offline_peer(last_epoch=epoch == config.epochs)
        if offline is not None:
            pair.both(lambda cdss: cdss.set_online(offline, False))
        pair.sync(max_rounds=config.max_sync_rounds)
        if offline is not None:
            pair.both(lambda cdss: cdss.set_online(offline, True))
    pair.sync(max_rounds=config.max_sync_rounds)
