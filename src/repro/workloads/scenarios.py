"""The five demonstration scenarios of Section 4, as scripted runs.

Each scenario builds a fresh Figure-2 network (from its declarative spec)
and drives the exchange with the orchestrated ``cdss.sync()`` API: one call
publishes every participating peer's pending transactions and reconciles
all of them until quiescence, returning a :class:`~repro.api.sync.SyncReport`
whose per-peer decisions the observations quote.  Scenarios restrict
``sync(peers=...)`` to the participants the demonstration script names, so
the interleavings match the paper exactly (e.g. in Scenario 3 Crete must
not reconcile before Beijing's dependent modification is published).

The integration tests and the benchmark harness both run these scenarios;
EXPERIMENTS.md records the observed outcomes next to the paper's
description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.system import CDSS
from .bioinformatics import FigureTwoNetwork, build_figure2_network


@dataclass
class ScenarioOutcome:
    """Outcome of one scripted demonstration scenario."""

    scenario_id: str
    title: str
    observations: dict[str, object] = field(default_factory=dict)
    network: FigureTwoNetwork | None = None


def _decision(cdss: CDSS, peer: str, txn_id: str) -> str:
    return cdss.reconciliation_state(peer).decision(txn_id).value


def scenario_1_bidirectional_translation() -> ScenarioOutcome:
    """Scenario 1: updates made by Alaska get translated into Dresden's schema
    and applied, and vice versa."""
    network = build_figure2_network()
    cdss = network.cdss
    alaska, dresden = network.alaska, network.dresden

    builder = alaska.new_transaction()
    builder.insert("O", ("E. coli", 1))
    builder.insert("P", ("lacZ", 10))
    builder.insert("S", (1, 10, "ATGACCATGATT"))
    alaska_txn = alaska.commit(builder)
    first = cdss.sync(peers=["Alaska", "Dresden"])

    dresden_txn = dresden.insert("OPS", ("H. sapiens", "BRCA1", "GGCTAGCTAGCT"))
    second = cdss.sync(peers=["Dresden", "Alaska"])

    observations = {
        "alaska_txn": alaska_txn.txn_id,
        "dresden_txn": dresden_txn.txn_id,
        "dresden_accepted_alaska": alaska_txn.txn_id in first.accepted("Dresden"),
        "dresden_ops": set(dresden.tuples("OPS")),
        "alaska_accepted_dresden": dresden_txn.txn_id in second.accepted("Alaska"),
        "alaska_has_translated_organism": any(
            values[0] == "H. sapiens" for values in alaska.tuples("O")
        ),
        "alaska_has_translated_sequence": any(
            values[2] == "GGCTAGCTAGCT" for values in alaska.tuples("S")
        ),
        "sync_rounds": first.round_count + second.round_count,
    }
    return ScenarioOutcome("DEMO-S1", "Bidirectional update translation", observations, network)


def scenario_2_conflict_and_dependent_rejection() -> ScenarioOutcome:
    """Scenario 2: Beijing and Dresden publish conflicting updates; Crete
    rejects Dresden's, and later also rejects Dresden's dependent follow-up."""
    network = build_figure2_network()
    cdss = network.cdss
    beijing, crete, dresden = network.beijing, network.crete, network.dresden

    # Conflicting assertions about the same (organism, protein) pair.
    builder = beijing.new_transaction()
    builder.insert("O", ("E. coli", 1))
    builder.insert("P", ("recA", 11))
    builder.insert("S", (1, 11, "AAAAAACCCCCC"))
    beijing_txn = beijing.commit(builder)

    dresden_txn = dresden.insert("OPS", ("E. coli", "recA", "GGGGGGTTTTTT"))

    first = cdss.sync(peers=["Beijing", "Dresden", "Crete"])

    # Dresden then publishes a follow-up that depends on its earlier update.
    follow_up = dresden.modify(
        "OPS",
        ("E. coli", "recA", "GGGGGGTTTTTT"),
        ("E. coli", "recA", "GGGGGGTTTTAA"),
    )
    second = cdss.sync(peers=["Dresden", "Crete"])

    observations = {
        "beijing_txn": beijing_txn.txn_id,
        "dresden_txn": dresden_txn.txn_id,
        "dresden_follow_up": follow_up.txn_id,
        "crete_accepts_beijing": beijing_txn.txn_id in first.accepted("Crete"),
        "crete_rejects_dresden": dresden_txn.txn_id in first.rejected("Crete"),
        "crete_rejects_follow_up": follow_up.txn_id in second.rejected("Crete"),
        "crete_ops": set(crete.tuples("OPS")),
        "crete_sequence_is_beijings": ("E. coli", "recA", "AAAAAACCCCCC")
        in crete.tuples("OPS"),
    }
    return ScenarioOutcome(
        "DEMO-S2", "Conflict resolution by trust and dependent rejection", observations, network
    )


def scenario_3_antecedent_acceptance() -> ScenarioOutcome:
    """Scenario 3: Alaska inserts several data points in one transaction;
    Beijing modifies one of them; Crete accepts Beijing's transaction together
    with the Alaska antecedent even though it does not trust Alaska."""
    network = build_figure2_network()
    cdss = network.cdss
    alaska, beijing, crete = network.alaska, network.beijing, network.crete

    builder = alaska.new_transaction()
    builder.insert("O", ("D. melanogaster", 3))
    builder.insert("P", ("gal4", 12))
    builder.insert("S", (3, 12, "TTTTTTTTTTTT"))
    builder.insert("O", ("C. elegans", 4))
    builder.insert("P", ("actin", 13))
    builder.insert("S", (4, 13, "CCCCCCCCCCCC"))
    alaska_txn = alaska.commit(builder)

    # Beijing first learns Alaska's data (Crete must not reconcile yet, or it
    # would reject the distrusted Alaska transaction outright)...
    cdss.sync(peers=["Alaska", "Beijing"])
    # ...then modifies one sequence, publishing a dependent transaction.
    beijing_txn = beijing.modify(
        "S", (3, 12, "TTTTTTTTTTTT"), (3, 12, "TTTTTTTTGGGG")
    )
    second = cdss.sync(peers=["Beijing", "Crete"])

    observations = {
        "alaska_txn": alaska_txn.txn_id,
        "beijing_txn": beijing_txn.txn_id,
        "beijing_depends_on_alaska": alaska_txn.txn_id in beijing_txn.antecedents,
        "crete_accepts_beijing": beijing_txn.txn_id in second.accepted("Crete"),
        "crete_accepts_alaska_antecedent": alaska_txn.txn_id in second.accepted("Crete"),
        "crete_has_modified_sequence": ("D. melanogaster", "gal4", "TTTTTTTTGGGG")
        in crete.tuples("OPS"),
        "crete_has_untouched_antecedent_data": ("C. elegans", "actin", "CCCCCCCCCCCC")
        in crete.tuples("OPS"),
        "crete_ops": set(crete.tuples("OPS")),
    }
    return ScenarioOutcome(
        "DEMO-S3", "Accepting a trusted update together with an untrusted antecedent",
        observations, network,
    )


def scenario_4_deferral_and_resolution() -> ScenarioOutcome:
    """Scenario 4: Beijing and Alaska publish conflicting updates; Dresden
    defers both, then defers Crete's dependent modification, and finally the
    administrator resolves the conflict, automatically accepting Crete's
    transaction."""
    network = build_figure2_network()
    cdss = network.cdss
    alaska, beijing, crete, dresden = (
        network.alaska,
        network.beijing,
        network.crete,
        network.dresden,
    )

    builder = beijing.new_transaction()
    builder.insert("O", ("S. cerevisiae", 5))
    builder.insert("P", ("hsp70", 14))
    builder.insert("S", (5, 14, "ACGTACGTACGT"))
    beijing_txn = beijing.commit(builder)

    builder = alaska.new_transaction()
    builder.insert("O", ("S. cerevisiae", 5))
    builder.insert("P", ("hsp70", 14))
    builder.insert("S", (5, 14, "TGCATGCATGCA"))
    alaska_txn = alaska.commit(builder)

    # One sync: both conflicting transactions reach every peer.  Dresden
    # trusts both equally and defers; Crete prefers Beijing and accepts it.
    first = cdss.sync()
    first_dresden = next(
        outcome for outcome in first.rounds[0].reconciled if outcome.peer == "Dresden"
    )

    # Crete publishes a modification on top of Beijing's (deferred) data.
    crete_txn = crete.modify(
        "OPS",
        ("S. cerevisiae", "hsp70", "ACGTACGTACGT"),
        ("S. cerevisiae", "hsp70", "ACGTACGTAAAA"),
    )
    second = cdss.sync(peers=["Crete", "Dresden"])

    resolution = cdss.resolve_conflict("Dresden", beijing_txn.txn_id)

    observations = {
        "beijing_txn": beijing_txn.txn_id,
        "alaska_txn": alaska_txn.txn_id,
        "crete_txn": crete_txn.txn_id,
        "dresden_defers_both": beijing_txn.txn_id in first.deferred("Dresden")
        and alaska_txn.txn_id in first.deferred("Dresden"),
        "dresden_open_conflicts_after_first": first_dresden.result.conflicts_deferred,
        "dresden_defers_crete": crete_txn.txn_id in second.deferred("Dresden")
        or crete_txn.txn_id in second.pending("Dresden"),
        "open_conflicts_reported": first.open_conflicts.get("Dresden", 0),
        "resolution_accepts_beijing": beijing_txn.txn_id in resolution.accepted,
        "resolution_rejects_alaska": alaska_txn.txn_id in resolution.rejected,
        "resolution_accepts_crete_automatically": crete_txn.txn_id in resolution.accepted,
        "dresden_final_sequence": ("S. cerevisiae", "hsp70", "ACGTACGTAAAA")
        in dresden.tuples("OPS"),
        "dresden_decisions": {
            txn: _decision(cdss, "Dresden", txn)
            for txn in (beijing_txn.txn_id, alaska_txn.txn_id, crete_txn.txn_id)
        },
    }
    return ScenarioOutcome(
        "DEMO-S4", "Deferral of equal-priority conflicts and manual resolution",
        observations, network,
    )


def scenario_5_offline_publisher() -> ScenarioOutcome:
    """Scenario 5: Beijing publishes a number of updates and then goes
    offline; Alaska can reconcile and still retrieve Beijing's updates."""
    network = build_figure2_network()
    cdss = network.cdss
    alaska, beijing = network.alaska, network.beijing

    committed = []
    for index in range(3):
        builder = beijing.new_transaction()
        builder.insert("O", (f"organism-{index}", 50 + index))
        builder.insert("P", (f"protein-{index}", 80 + index))
        builder.insert("S", (50 + index, 80 + index, "ACGT" * 3))
        committed.append(beijing.commit(builder))
    cdss.sync(peers=["Beijing"])

    # Beijing disconnects; its archived updates must remain retrievable, and
    # the network-wide sync must report the skipped peer instead of silently
    # dropping it.
    cdss.set_online("Beijing", False)
    report = cdss.sync()

    observations = {
        "beijing_txns": [txn.txn_id for txn in committed],
        "beijing_online": cdss.network.is_online("Beijing"),
        "sync_skipped_offline": report.skipped_offline,
        "alaska_accepted_all": all(
            txn.txn_id in report.accepted("Alaska") for txn in committed
        ),
        "alaska_organism_count": len(alaska.tuples("O")),
        "store_still_has_beijing": all(
            cdss.store.contains(txn.txn_id) for txn in committed
        ),
        # The fraction of Beijing's transactions the store still serves.
        "archive_availability": sum(txn.txn_id in cdss.store for txn in committed)
        / len(committed),
    }
    return ScenarioOutcome(
        "DEMO-S5", "Publisher goes offline; archived updates remain available",
        observations, network,
    )


#: All five scenarios keyed by their experiment id.
ALL_SCENARIOS: dict[str, Callable[[], ScenarioOutcome]] = {
    "DEMO-S1": scenario_1_bidirectional_translation,
    "DEMO-S2": scenario_2_conflict_and_dependent_rejection,
    "DEMO-S3": scenario_3_antecedent_acceptance,
    "DEMO-S4": scenario_4_deferral_and_resolution,
    "DEMO-S5": scenario_5_offline_publisher,
}


def run_all_scenarios() -> dict[str, ScenarioOutcome]:
    """Run every demonstration scenario and return the outcomes by id."""
    return {scenario_id: factory() for scenario_id, factory in ALL_SCENARIOS.items()}
