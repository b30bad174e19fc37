"""Experiment FIG1-architecture: the publish → archive → translate → reconcile pipeline.

Figure 1 of the paper shows the CDSS architecture: peers publish transactions
into a shared (peer-to-peer) archive, the update-exchange engine translates
them, and each peer reconciles against its trust policy — all while peers
connect and disconnect.  This benchmark drives a three-peer chain
(A → B → C), built with the fluent :class:`~repro.api.NetworkBuilder`,
through that pipeline with churn at the publisher and reports the
per-stage costs and the availability the archive provides.
"""

from __future__ import annotations

import pytest

from repro import CDSS, NetworkBuilder

from ._reporting import print_outcomes, print_table

TRANSACTIONS = 40


def build_chain() -> CDSS:
    return (
        NetworkBuilder("fig1-chain")
        .peer("A").relation("R", "k", "v", key=("k",))
        .peer("B").relation("R", "k", "v", key=("k",))
        .peer("C").relation("R", "k", "v", key=("k",))
        .mapping("[M_AB] @B.R(k, v) :- @A.R(k, v).")
        .mapping("[M_BC] @C.R(k, v) :- @B.R(k, v).")
        .build()
    )


def run_pipeline() -> dict[str, object]:
    cdss = build_chain()
    source = cdss.peer("A")
    for index in range(TRANSACTIONS):
        source.insert("R", (index, f"value-{index}"))
    publish = cdss.publish("A")

    # The publisher disconnects: its updates must stay retrievable, and the
    # orchestrated sync reports the offline peer instead of dropping it.
    cdss.set_online("A", False)
    report = cdss.sync()

    return {
        "published": len(publish.published),
        "translated_changes": publish.translated_changes,
        "b_accepted": len(report.accepted("B")),
        "c_accepted": len(report.accepted("C")),
        "skipped_offline": report.skipped_offline,
        "c_tuples": cdss.peer("C").instance.count("R"),
        "archive_size": len(cdss.store),
        # The fraction of A's transactions the store still serves.
        "availability": sum(txn_id in cdss.store for txn_id in publish.published)
        / len(publish.published),
        "publish_outcome": publish,
    }


def test_fig1_pipeline(benchmark):
    stats = benchmark(run_pipeline)
    assert stats["published"] == TRANSACTIONS
    assert stats["c_accepted"] == TRANSACTIONS
    assert stats["c_tuples"] == TRANSACTIONS
    assert stats["skipped_offline"] == ["A"]
    print_table(
        "FIG1: publish -> archive -> translate -> reconcile over a 3-peer chain",
        ["metric", "value"],
        [[key, value] for key, value in stats.items() if key != "publish_outcome"],
    )
    print_outcomes(
        "FIG1: publication outcome (serialized)",
        [stats["publish_outcome"]],
        ["peer", "epoch", "published", "translated_changes"],
    )


@pytest.mark.parametrize("stage", ["publish", "reconcile"])
def test_fig1_stage_costs(benchmark, stage):
    """Per-stage cost of the pipeline (publication vs reconciliation)."""
    def setup():
        cdss = build_chain()
        source = cdss.peer("A")
        for index in range(TRANSACTIONS):
            source.insert("R", (index, f"value-{index}"))
        if stage == "reconcile":
            cdss.publish("A")
        return (cdss,), {}

    def run(cdss: CDSS):
        if stage == "publish":
            return cdss.publish("A")
        return cdss.reconcile("C")

    result = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    assert result is not None
