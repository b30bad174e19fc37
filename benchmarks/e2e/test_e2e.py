"""Tests of the benchmark itself, at tiny per-step sizes.

Run with ``python -m pytest benchmarks/e2e -q`` (well under 30 s).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.e2e import ROOT, harness
from benchmarks.e2e.layers import PER_LAYER, SELF_TIME, unit_of
from benchmarks.e2e.workloads import WORKLOADS

SEED = 7
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def rows() -> dict[str, dict]:
    """One traced measurement of every workload (timings are not asserted on,
    so two workloads may share the machine)."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        measured = pool.map(
            lambda workload: harness.measure(workload, SEED, trace=True, scale="tiny"), WORKLOADS
        )
        return dict(zip(WORKLOADS, measured))


def test_contract_file_names_what_the_harness_measures():
    assert [entry["name"] for entry in CONTRACT["workloads"]] == list(WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [(entry["name"], entry["unit"]) for entry in CONTRACT["per_layer"]] == [
        (name, unit_of(name)) for name in PER_LAYER
    ]
    known = {name: (unit, better) for name, unit, better in harness.END_TO_END}
    for entry in CONTRACT["end_to_end"]:
        assert (entry["unit"], entry["better"]) == known[entry["name"]]
        assert 0 < entry["bound"] <= 0.25
    assert "setup_s" in {entry["name"] for entry in CONTRACT["end_to_end"]}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


def test_every_workload_reports_every_metric(rows):
    assert len(rows) == 5
    for workload, row in rows.items():
        assert row["failures"] == [], workload
        assert row["failed"] == 0 and row["attempted"] == 300
        assert list(row["end_to_end"]) == [name for name, _, _ in harness.END_TO_END]
        assert list(row["per_layer"]) == list(PER_LAYER)
        for name in [*row["end_to_end"], *row["per_layer"]]:
            assert NAME.fullmatch(name), name
        assert row["end_to_end"]["failed_ops_frac"]["value"] == 0
        assert row["end_to_end"]["wall_s"]["value"] > 0
        assert set(row["stamp"]) == {"commit", "python", "platform", "nproc", "seed"}


def test_self_times_add_up_to_the_traced_wall(rows):
    for workload, row in rows.items():
        covered = sum(row["per_layer"][name]["value"] for name in SELF_TIME)
        assert covered == pytest.approx(row["traced_wall_s"], rel=0.05), workload


def test_layers_used_match_the_workload(rows):
    def layer(workload, name):
        return rows[workload]["per_layer"][name]["value"]

    assert layer("bulk_insert", "reconcile.calls") == 0
    assert layer("bulk_insert", "provenance.record_s") != 0
    assert layer("bulk_delete", "exchange.delta_deletions") > 0
    assert layer("fig2_stream", "reconcile.candidates") > 0
    assert layer("star_sync", "p2p.gossip.sessions") == 0
    assert layer("churn_gossip", "p2p.gossip.sessions") > 0
    assert layer("churn_gossip", "p2p.store.quorum_reads") > 0
    assert rows["star_sync"]["end_to_end"]["wire_kb_per_txn"]["value"] > 0


def test_digest_repeats_per_seed_and_differs_across_seeds(rows):
    # measure() already failed the row if its four same-seed runs disagreed.
    for workload, row in rows.items():
        other = harness.run_child(workload, SEED + 1, "tiny")
        assert other["state_digest"] != row["state_digest"], workload


def test_broken_check_gives_non_zero_exit(tmp_path, monkeypatch, capsys):
    arguments = ["--workload", "star_sync", "--seed", str(SEED), "--scale", "tiny"]
    wrong = {"star_sync": {"state_digest": "0" * 16}}
    baseline = {"seed": SEED, "scale": "tiny", "workloads": wrong}
    broken = tmp_path / "baseline.json"
    broken.write_text(json.dumps(baseline))
    monkeypatch.setattr(harness, "BASELINE_PATH", broken)
    assert harness.main(arguments) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_command_prints_the_contract_object(tmp_path, trace, section):
    out = tmp_path / "rows.jsonl"
    command = [
        *CONTRACT["command"], "--workload", "bulk_delete", "--seed", "3", "--seconds", "0",
        "--trace", trace, "--scale", "tiny", "--out", str(out),
    ]  # fmt: skip
    command[0] = sys.executable
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert completed.returncode == 0
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [entry["name"] for entry in CONTRACT[section]]
    for entry in CONTRACT[section]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert json.loads(out.read_text())["stamp"]["seed"] == 3
