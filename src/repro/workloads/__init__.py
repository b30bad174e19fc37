"""Workload construction, demonstration scenarios and reporting.

* :mod:`repro.workloads.bioinformatics` builds the Figure-2 CDSS (the four
  universities sharing protein reference sequences) and generates synthetic
  organism/protein/sequence data at configurable scale,
* :mod:`repro.workloads.scenarios` scripts the five demonstration scenarios
  of Section 4 of the paper and returns structured outcomes,
* :mod:`repro.workloads.simulation` generates whole random networks
  (peers, schemas, acyclic mapping graphs, trust policies) from a seed,
  drives random workloads over them and checks differential oracles —
  the engine behind ``python -m repro.simulate``,
* :mod:`repro.workloads.reporting` renders textual views of peers, mappings
  and reconciliation traces (the stand-in for the paper's Java GUI).
"""

from .bioinformatics import (
    BioDataGenerator,
    FIGURE2_SPEC,
    FigureTwoNetwork,
    build_figure2_network,
    SIGMA1_RELATIONS,
    SIGMA2_RELATIONS,
)
from .reporting import render_mappings, render_peer_state, render_reconciliation
from .simulation import (
    CampaignResult,
    OracleFailure,
    RandomWorkload,
    SimulationConfig,
    SimulationResult,
    generate_network,
    run_campaign,
    run_simulation,
)
from .scenarios import (
    ScenarioOutcome,
    run_all_scenarios,
    scenario_1_bidirectional_translation,
    scenario_2_conflict_and_dependent_rejection,
    scenario_3_antecedent_acceptance,
    scenario_4_deferral_and_resolution,
    scenario_5_offline_publisher,
)

__all__ = [
    "BioDataGenerator",
    "CampaignResult",
    "FIGURE2_SPEC",
    "FigureTwoNetwork",
    "OracleFailure",
    "RandomWorkload",
    "SIGMA1_RELATIONS",
    "SIGMA2_RELATIONS",
    "ScenarioOutcome",
    "SimulationConfig",
    "SimulationResult",
    "build_figure2_network",
    "generate_network",
    "run_campaign",
    "run_simulation",
    "render_mappings",
    "render_peer_state",
    "render_reconciliation",
    "run_all_scenarios",
    "scenario_1_bidirectional_translation",
    "scenario_2_conflict_and_dependent_rejection",
    "scenario_3_antecedent_acceptance",
    "scenario_4_deferral_and_resolution",
    "scenario_5_offline_publisher",
]
