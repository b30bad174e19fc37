"""The randomized simulation subsystem and its differential oracles.

The parametrized slice runs 25 seeded random networks through all the
differential oracles (incremental-vs-recompute, provenance-vs-DRed,
dag-vs-expanded, sync-vs-manual, memory-vs-SQLite, distributed-vs-centralized,
sketch-vs-cursor, replica-durability); the
remaining tests pin down the generator's guarantees (round-tripping,
determinism, validation) and the oracles' sensitivity (a deliberately
injected divergence is reported with its seed and first failing epoch).
"""

from collections import Counter

import pytest

from repro.api.spec import parse_network_spec
from repro.errors import ConfigurationError
from repro.p2p.distributed import DistributedUpdateStore, ShardReplica
from repro.simulate import main as simulate_main
from repro.workloads.simulation import (
    MIRRORS,
    SimulationConfig,
    SimulationRun,
    generate_network,
    run_campaign,
    run_simulation,
    simulated_system,
)

from replica_census import census_problems, holders, prune_problems

#: The tier-1 fuzz slice: 25 seeds, every oracle, every epoch.
SLICE_SEEDS = list(range(1, 26))



def slice_config(offline=SimulationConfig.offline_probability, **modes):
    """The small-but-representative slice (2-4 peers, 3 epochs) with the
    primary replica in the given modes (``store="distributed"``, ...)."""
    return SimulationConfig(
        epochs=3,
        transactions_per_epoch=(2, 5),
        system=simulated_system(**modes),
        offline_probability=offline,
    )


SLICE_CONFIG = slice_config()


class TestGeneratedNetworks:
    @pytest.mark.parametrize("seed", [3, 17, 91, 404])
    def test_spec_round_trips_through_text(self, seed):
        spec = generate_network(seed)
        reparsed = parse_network_spec(spec.to_text())
        assert reparsed.to_dict() == spec.to_dict()

    @pytest.mark.parametrize("seed", [5, 42])
    def test_generation_is_deterministic(self, seed):
        assert generate_network(seed).to_text() == generate_network(seed).to_text()

    def test_different_seeds_differ(self):
        texts = {generate_network(seed).to_text() for seed in range(1, 9)}
        assert len(texts) > 1

    def test_mapping_graph_is_acyclic(self):
        # Edges only ever point from lower- to higher-indexed peers.
        for seed in range(1, 13):
            for mapping in generate_network(seed).mappings:
                source = int(mapping.source_peer.removeprefix("Peer"))
                target = int(mapping.target_peer.removeprefix("Peer"))
                assert source < target

    def test_every_non_root_peer_is_reachable(self):
        for seed in range(1, 13):
            spec = generate_network(seed)
            targets = {mapping.target_peer for mapping in spec.mappings}
            for name in list(spec.peers)[1:]:
                assert name in targets

    def test_generated_network_builds_and_syncs(self):
        from repro import CDSS

        spec = generate_network(7)
        cdss = CDSS.from_spec(spec)
        first_peer = next(iter(spec.peers.values()))
        relation, attributes = next(iter(first_peer.relations.items()))
        cdss.peer(first_peer.name).insert(relation, tuple(range(len(attributes))))
        report = cdss.sync()
        assert report.converged


class TestSimulationConfig:
    def test_fraction_sum_is_validated(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(modify_fraction=0.7, delete_fraction=0.4)
        # conflict_fraction rolls independently, so it is not part of the sum.
        SimulationConfig(modify_fraction=0.5, delete_fraction=0.4, conflict_fraction=0.9)

    def test_peer_range_is_validated(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(min_peers=5, max_peers=3)
        with pytest.raises(ConfigurationError):
            SimulationConfig(min_peers=1)

    def test_transactions_range_is_validated(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(transactions_per_epoch=(6, 2))

    def test_sync_mode_is_validated(self):
        with pytest.raises(ConfigurationError):
            simulated_system(sync="telepathy")
        system = simulated_system(sync="gossip")
        assert (system.sync.mode, system.sync.sketch) == ("gossip", "iblt")
        for unknown in ({"observe": "trace"}, {"execution": "sql"}, {"sketch": "iblt"}):
            # A level is not a mode a mirror flips; there is one executor
            # and one sketch.
            with pytest.raises(ConfigurationError, match="unknown simulation mode"):
                simulated_system(**unknown)


@pytest.mark.parametrize("seed", SLICE_SEEDS)
def test_differential_oracles_hold(seed):
    """≥25 seeded random networks pass all eight differential oracles."""
    result = run_simulation(seed, SLICE_CONFIG)
    assert result.ok, "\n".join(failure.describe() for failure in result.failures)
    assert result.transactions > 0
    # spec round-trip + analyzer-clean + 8 oracles per epoch actually ran.
    assert result.oracle_checks == 2 + 8 * result.epochs_run


@pytest.mark.parametrize("seed", [2, 9, 23])
def test_differential_oracles_hold_with_distributed_primary(seed):
    """The whole oracle suite also passes with a distributed-store primary."""
    result = run_simulation(seed, slice_config(offline=0.5, store="distributed"))
    assert result.ok, "\n".join(failure.describe() for failure in result.failures)


#: ``python -m repro.simulate --store distributed``: the CLI's defaults with
#: a distributed-store primary.
DISTRIBUTED_CLI_CONFIG = SimulationConfig(
    epochs=4,
    max_peers=4,
    transactions_per_epoch=(2, 6),
    system=simulated_system(store="distributed"),
)


@pytest.mark.parametrize("seed", SLICE_SEEDS)
def test_under_replicated_matches_a_replica_census(seed, monkeypatch):
    """The 25-seed ``--store distributed`` campaign: after every archive,
    every connectivity change and every epoch, ``under_replicated()`` equals
    a brute-force count of each sequence's holders over what the replicas
    hold (:func:`census_problems`), and no prune takes an entry below the
    copies it must keep (:func:`prune_problems`)."""
    problems: list[str] = []
    checks: Counter = Counter()

    def check_after(owner, name, store_of=lambda store: store):
        method = getattr(owner, name)

        def checked(target, *args, **kwargs):
            result = method(target, *args, **kwargs)
            checks[name] += 1
            problems.extend(census_problems(store_of(target)))
            return result

        monkeypatch.setattr(owner, name, checked)

    check_after(DistributedUpdateStore, "archive")
    check_after(DistributedUpdateStore, "_on_connectivity")
    check_after(SimulationRun, "run_epoch", lambda run: run._distributed_replica().store)
    prune = DistributedUpdateStore._prune_shard

    def checked_prune(store, shard):
        before = holders(store, shard)
        prune(store, shard)
        checks["_prune_shard"] += 1
        problems.extend(prune_problems(store, shard, before))

    monkeypatch.setattr(DistributedUpdateStore, "_prune_shard", checked_prune)
    result = run_simulation(seed, DISTRIBUTED_CLI_CONFIG)
    assert result.ok, "\n".join(failure.describe() for failure in result.failures)
    assert problems == []
    assert checks["run_epoch"] == result.epochs_run == DISTRIBUTED_CLI_CONFIG.epochs
    assert checks["archive"] > 0


@pytest.mark.parametrize("seed", range(1, 51))
def test_sketch_vs_cursor_oracle_holds_with_gossip_primary_iblt(seed):
    """50 seeds with an IBLT-gossip primary: reconcile outcomes and
    instances match the cursor-sync mirror under churn."""
    result = run_simulation(seed, slice_config(offline=0.4, sync="gossip"))
    assert result.ok, "\n".join(failure.describe() for failure in result.failures)
    assert result.oracle_checks == 2 + 8 * result.epochs_run


@pytest.mark.parametrize("seed", [6, 14])
def test_sketch_vs_cursor_oracle_holds_on_distributed_store(seed):
    """Gossip sync against the sharded distributed archive, under churn."""
    result = run_simulation(seed, slice_config(offline=0.5, sync="gossip", store="distributed"))
    assert result.ok, "\n".join(failure.describe() for failure in result.failures)


def test_simulation_is_deterministic():
    first = run_simulation(11, SLICE_CONFIG)
    second = run_simulation(11, SLICE_CONFIG)
    assert first.to_dict() == second.to_dict()


def test_campaign_aggregates_results():
    campaign = run_campaign([1, 2, 3], SLICE_CONFIG)
    assert campaign.ok
    data = campaign.to_dict()
    assert data["seeds"] == 3
    assert data["transactions"] == sum(r.transactions for r in campaign.results)


class TestOracleSensitivity:
    """Injected divergences must be caught and pinned to seed + epoch."""

    def _run_one_epoch(self, seed=4, **modes):
        run = SimulationRun(seed, slice_config(**modes))
        run.run_epoch(1, last_epoch=False)
        assert not run.failures
        return run

    def _run_with(self, name):
        """One clean epoch of a run, with the named row of MIRRORS."""
        return next(row for row in MIRRORS if row.name == name), self._run_one_epoch()

    def _only_failure(self, run, mirror):
        """Re-check every mirror: exactly the tampered one's oracle fails."""
        for row in MIRRORS:
            run.check_mirror(row, epoch=2)
        (failure,) = run.failures
        assert failure.oracle == mirror.oracle
        assert failure.seed == 4 and failure.epoch == 2
        assert "seed 4" in failure.describe() and "epoch 2" in failure.describe()
        return failure.detail

    def _corrupt_instance(self, name):
        mirror, run = self._run_with(name)
        peer = run.mirrors[name].peer(run.primary.catalog.peer_names()[0])
        relation = next(iter(peer.schema)).name
        peer.instance.insert(relation, tuple("z" for _ in range(peer.schema.arity(relation))))
        assert f"only in {name}" in self._only_failure(run, mirror)

    def _tamper_with_rounds(self, name):
        mirror, run = self._run_with(name)
        assert mirror.rounds
        run._last_reports[name].rounds[0].published = []
        assert "sync round 1 diverges" in self._only_failure(run, mirror)

    def test_memory_vs_sqlite_detects_divergence(self):
        self._corrupt_instance("sqlite")

    def test_sync_vs_manual_detects_divergence(self):
        self._corrupt_instance("manual")

    def test_distributed_vs_centralized_detects_divergence(self):
        self._corrupt_instance("storecheck")

    def test_distributed_vs_centralized_detects_report_divergence(self):
        self._tamper_with_rounds("storecheck")

    def test_sketch_vs_cursor_detects_divergence(self):
        self._corrupt_instance("synccheck")

    def test_sketch_vs_cursor_detects_report_divergence(self):
        self._tamper_with_rounds("synccheck")

    def test_every_mirror_has_its_sensitivity_cases(self):
        """A new row of MIRRORS needs its cases above, by the oracle's name."""
        for row in MIRRORS:
            stem = f"test_{row.oracle.replace('-', '_')}_detects"
            assert hasattr(self, f"{stem}_divergence"), row
            assert hasattr(self, f"{stem}_report_divergence") == row.rounds, row

    def test_incremental_vs_recompute_detects_divergence(self):
        run = self._run_one_epoch()
        database = run.primary.engine.database
        predicate = next(iter(database.predicates()))
        values = next(iter(database.relation(predicate)))
        database.remove(predicate, values)
        run._check_incremental_vs_recompute(epoch=2)
        assert run.failures[-1].oracle == "incremental-vs-recompute"

    def test_provenance_vs_dred_detects_divergence(self):
        run = self._run_one_epoch()
        database = run.primary.engine.database
        predicate = next(iter(database.predicates()))
        database.add(predicate, tuple("x" for _ in range(len(next(iter(database.relation(predicate)))))))
        run._check_provenance_vs_dred(epoch=2)
        assert run.failures[-1].oracle == "provenance-vs-dred"
        assert "only in provenance" in run.failures[-1].detail

    def test_replica_durability_detects_lost_copies(self):
        run = self._run_one_epoch()
        store = run._distributed_replica().store
        # Drop one copy of every entry from the first populated shard while
        # leaving its gossip summary intact — a holder that still claims the
        # data but lost the bytes, which anti-entropy cannot repair.
        shard = next(iter(store._shard_sequences))
        victim = store._replicas[shard][0]
        claimed = victim.compact_clock()
        emptied = ShardReplica(victim.host)
        emptied.compact_clock = lambda: claimed
        store._replicas[shard][0] = emptied
        run._check_replica_durability(epoch=2)
        failure = run.failures[-1]
        assert failure.oracle == "replica-durability"
        assert "under-replicated" in failure.detail


class TestCli:
    def _campaign_runs_on(self, flag, *words, rejected):
        for word in words:
            argv = ["--seeds", "1", "--epochs", "2", f"--{flag}", word, "--quiet"]
            assert simulate_main(argv) == 0
        with pytest.raises(SystemExit):
            simulate_main([f"--{flag}", rejected])

    def _crash_names(self, capsys, monkeypatch, *flags):
        """A crashing seed's reproduction line repeats the mode flags, and
        the run was configured with them."""
        import repro.simulate as cli

        def boom(seed, config):
            assert config.system == simulated_system(
                **{flag.lstrip("-"): word for flag, word in zip(flags[::2], flags[1::2])}
            )
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(cli, "run_simulation", boom)
        assert cli.main(["--seeds", "1", *flags]) == 1
        err = capsys.readouterr().err
        assert "engine exploded" in err and " ".join(flags) in err

    def test_cli_runs_a_small_campaign(self, capsys):
        assert simulate_main(["--seeds", "2", "--seed-base", "31", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "seed 31: ok" in out and "2 seeds from 31: ok" in out

    def test_cli_quiet_only_prints_summary(self, capsys):
        assert simulate_main(["--seeds", "1", "--quiet", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.strip().startswith("simulate:")

    def test_cli_rejects_zero_seeds(self, capsys):
        assert simulate_main(["--seeds", "0"]) == 2

    def test_cli_rejects_bad_config_cleanly(self, capsys):
        assert simulate_main(["--epochs", "0"]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert simulate_main(["--transactions", "0"]) == 2

    def test_cli_accepts_single_transaction_epochs(self, capsys):
        assert simulate_main(["--seeds", "1", "--transactions", "1", "--epochs", "2"]) == 0

    def test_cli_store_backend_flags(self, capsys):
        self._campaign_runs_on("store", "distributed", "centralized", rejected="clustered")
        with pytest.raises(SystemExit):
            simulate_main(["--store-distributed"])  # the pre-table spelling is gone

    def test_cli_repro_line_names_distributed_store(self, capsys, monkeypatch):
        self._crash_names(capsys, monkeypatch, "--store", "distributed")

    def test_cli_sync_mode_flags(self, capsys):
        self._campaign_runs_on("sync", "gossip", "cursor", rejected="telepathy")
        with pytest.raises(SystemExit):
            simulate_main(["--sketch", "iblt"])  # one sketch: not a mode

    def test_cli_repro_line_names_gossip_sync(self, capsys, monkeypatch):
        self._crash_names(capsys, monkeypatch, "--sync", "gossip")

    def test_cli_has_no_execution_flag(self, capsys):
        with pytest.raises(SystemExit):
            simulate_main(["--execution", "sql"])

    def test_cli_attributes_crashes_to_their_seed(self, capsys, monkeypatch):
        import repro.simulate as cli

        def boom(seed, config):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(cli, "run_simulation", boom)
        assert cli.main(["--seeds", "2", "--seed-base", "40"]) == 1
        err = capsys.readouterr().err
        assert "seed 40" in err and "seed 41" in err
        assert "--seed-base 40" in err and "engine exploded" in err


@pytest.mark.slow
def test_extended_fuzz_campaign():
    """Nightly-sized campaign: larger networks, more epochs, fresh seeds."""
    config = SimulationConfig(epochs=6, max_peers=6, transactions_per_epoch=(3, 9))
    campaign = run_campaign(range(500, 560), config)
    assert campaign.ok, "\n".join(f.describe() for f in campaign.failures)
