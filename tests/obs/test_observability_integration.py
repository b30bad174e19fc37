"""End-to-end observability: registry views, determinism, overhead guard.

* Views: `Network.message_stats` and `ExchangeEngine.statistics` read the
  shared metrics registry, the only place the counts live, and reading
  them writes nothing; `report.pipelined()` replays exactly the traffic
  the registry counted.
* Determinism: two same-seed Figure-2 runs produce byte-identical Chrome
  trace JSON and identical metrics snapshots.
* Overhead: with no tracer installed, the instrumented executor path stays
  within a few percent of an uninstrumented backend (nominal budget 2%;
  the assertion leaves headroom for scheduler noise).
"""

import cProfile
import gc
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.api.builder import NetworkBuilder
from repro.datalog.evaluation import Database
from repro.datalog.executor import PythonExecutionBackend
from repro.datalog.incremental import IncrementalEngine
from repro.datalog.parser import parse_program
from repro.datalog.plan import compile_program
from repro.obs import NULL_SPAN, MetricsRegistry, Observability, validate_metric_keys
from repro.p2p.network import LatencyModel
from repro.trace import run_figure2


def _pair(observe="metrics"):
    builder = NetworkBuilder("pair")
    builder.peer("Source").relation("R", "k", "v", key=["k"])
    builder.peer("Target").relation("R", "k", "v", key=["k"])
    builder.mapping("[M] @Target.R(k, v) :- @Source.R(k, v).")
    if observe is not None:
        builder.observe(observe)
    return builder.build()


class TestMessageStatsParity:
    def test_view_agrees_with_registry(self):
        cdss = _pair()
        cdss.network.set_latency_model(LatencyModel(seed=3))
        cdss.peer("Source").insert("R", (1, "a"))
        cdss.sync()
        stats = cdss.network.message_stats()
        metrics = cdss.obs.metrics
        assert stats["messages"] == int(metrics.counter_value("net.messages.sent"))
        assert stats["bytes"] == int(metrics.counter_value("net.bytes.sent"))
        assert stats["messages"] > 0
        # The per-peer breakdown is exactly the labelled series, and the
        # labelled series rolls up to the unlabelled totals.
        sent = metrics.labelled_counters("net.messages.sent")
        assert sum(sent.values()) == stats["messages"]
        for name, entry in stats["per_peer"].items():
            assert entry["sent"] == int(sent.get(name, 0))
            assert entry["bytes_received"] == int(
                metrics.counter_value("net.bytes.received", label=name)
            )


class TestEngineStatistics:
    def test_each_maintenance_step_reaches_the_registry_once(self, monkeypatch):
        # The executor's counts travel on each step's MaintenanceResult and
        # process_transaction adds them to the ``exchange.*`` series.
        steps = []
        apply_insertions = IncrementalEngine.apply_insertions

        def counted(self, facts):
            result = apply_insertions(self, facts)
            steps.append(result.stats)
            return result

        monkeypatch.setattr(IncrementalEngine, "apply_insertions", counted)
        cdss = _pair()
        for index in range(3):
            cdss.peer("Source").insert("R", (index, f"v{index}"))
        cdss.sync()
        metrics = cdss.obs.metrics
        statistics = cdss.engine.statistics()
        for name in ("rules_fired", "tuples_derived", "rounds"):
            total = sum(getattr(stats, name) for stats in steps)
            assert total > 0, name
            assert metrics.counter_value(f"exchange.{name}") == total, name
        assert statistics["rules_fired"] == metrics.counter_value("exchange.rules_fired")
        assert statistics["tuples_derived"] == metrics.counter_value("exchange.tuples_derived")

    def test_registry_survives_engine_rebuild(self):
        # CDSS rebuilds the exchange engine on schema changes and replays
        # the store; the per-engine view must stay scoped to one engine
        # while the registry keeps the system-wide cumulative count.
        cdss = _pair()
        cdss.peer("Source").insert("R", (1, "a"))
        cdss.sync()
        fired_before = cdss.obs.metrics.counter_value("exchange.rules_fired")
        assert fired_before > 0
        cdss._invalidate_engine()
        engine = cdss.engine  # rebuild + replay
        fired_after = cdss.obs.metrics.counter_value("exchange.rules_fired")
        # The replay fires what the first engine fired, and only that is
        # the rebuilt engine's.
        assert fired_after == 2 * fired_before
        assert engine.statistics()["rules_fired"] == fired_after - fired_before

    def test_statistics_writes_nothing(self):
        cdss = _pair()
        cdss.peer("Source").insert("R", (1, "a"))
        cdss.sync()
        before = cdss.metrics_snapshot()
        assert cdss.statistics()["database_tuples"] > 0
        assert cdss.metrics_snapshot() == before

    def test_a_read_between_syncs_leaves_the_next_report_alone(self):
        # Two identical systems; one is read between its syncs.  Reading
        # must not put a series into the next report's metrics.
        reports = []
        for read in (False, True):
            cdss = _pair()
            cdss.peer("Source").insert("R", (1, "a"))
            cdss.sync()
            if read:
                cdss.statistics()
            cdss.peer("Source").insert("R", (2, "b"))
            reports.append(cdss.sync().metrics)
        assert reports[0] == reports[1]
        assert "exchange.database_tuples" not in reports[1]


class TestPipelinedParity:
    def test_accounting_agrees_with_registry(self):
        cdss = _pair()
        cdss.network.set_latency_model(LatencyModel(seed=3))
        cdss.peer("Source").insert("R", (1, "a"))
        before = cdss.metrics_snapshot()
        report = cdss.sync()
        pipelined = report.pipelined(workers=1)
        # Centralized cursor sync: every priced message is one transfer.
        assert pipelined["transfers"] == report.metrics["net.messages.sent"] > 0
        assert report.metrics == cdss.obs.metrics.since(before)
        assert pipelined["virtual_seconds"] == pytest.approx(cdss.network.clock.now)
        assert not any(name.startswith("sync.runtime") for name in cdss.metrics_snapshot())


class TestReportMetrics:
    def test_off_by_default(self):
        cdss = _pair(observe=None)
        cdss.peer("Source").insert("R", (1, "a"))
        report = cdss.sync()
        assert report.metrics is None
        assert "metrics" not in report.to_dict()

    def test_metrics_mode_attaches_per_run_delta(self):
        cdss = _pair()
        cdss.peer("Source").insert("R", (1, "a"))
        report = cdss.sync()
        assert report.metrics is not None
        assert report.metrics["sync.rounds"] >= 1
        assert report.to_dict()["metrics"] == report.metrics
        # The delta is per-run: a quiescent follow-up sync reports its own
        # (smaller) movement, not the cumulative registry.
        follow_up = cdss.sync()
        assert follow_up.metrics["sync.rounds"] == 1

    def test_registry_is_copied_only_when_reported(self, monkeypatch):
        copies = []
        snapshot = MetricsRegistry.snapshot

        def counted(self):
            copies.append(self)
            return snapshot(self)

        monkeypatch.setattr(MetricsRegistry, "snapshot", counted)
        quiet = _pair(observe=None)
        quiet.peer("Source").insert("R", (1, "a"))
        assert quiet.sync().metrics is None
        assert copies == []

        observed = _pair()
        observed.peer("Source").insert("R", (1, "a"))
        before = observed.metrics_snapshot()
        report = observed.sync()
        assert report.metrics == observed.obs.metrics.since(before)
        assert report.metrics["sync.reconciliations"] == 4  # two peers, two rounds

    def test_sync_trace_true_installs_tracer(self):
        cdss = _pair(observe=None)
        cdss.peer("Source").insert("R", (1, "a"))
        report = cdss.sync(trace=True)
        assert cdss.obs.tracer is not None
        assert report.metrics is not None
        names = {event["name"] for event in cdss.trace_events()}
        assert "sync.round" in names and "publish" in names
        cdss.sync(trace=False)
        assert cdss.obs.tracer is None

    def test_cli_sets_the_pipelined_schedule_beside_the_serial_clock(self, capsys):
        from repro.trace import main

        assert main(["--figure2", "--seed", "5"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith("virtual time: serial ")
        assert ", pipelined " in summary and "at workers 8, queue depth 4" in summary

    def test_snapshot_keys_pass_lint(self):
        cdss = run_figure2(seed=5)
        assert validate_metric_keys(cdss.metrics_snapshot()) == []


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        from repro.obs import trace_json

        first = run_figure2(seed=11)
        second = run_figure2(seed=11)
        assert trace_json(first.obs.tracer) == trace_json(second.obs.tracer)
        assert first.metrics_snapshot() == second.metrics_snapshot()

    def test_different_seeds_differ(self):
        from repro.obs import trace_json

        first = run_figure2(seed=11)
        second = run_figure2(seed=12)
        assert trace_json(first.obs.tracer) != trace_json(second.obs.tracer)


class TestDisabledOverhead:
    N = 160

    def _workload(self):
        program = parse_program(
            """
            tc(x, y) :- edge(x, y).
            tc(x, z) :- edge(x, y), tc(y, z).
            """
        )
        compiled = compile_program(program)
        base = Database()
        for index in range(self.N):
            base.add("edge", (index, index + 1))
        return compiled, base

    @staticmethod
    def _time(backends, compiled, base, repeats=7):
        """Each backend's best run of ``repeats``.  The backends take turns
        inside every repeat, first in one order and then in the other, so a
        slow spell of the machine lands on all of them rather than on
        whichever was being timed then."""
        best = [float("inf")] * len(backends)
        for repeat in range(repeats):
            turns = list(enumerate(backends))
            if repeat % 2:
                turns.reverse()
            for slot, backend in turns:
                database = base.copy()
                database.ensure_indexes(compiled.demanded_indexes)
                started = time.perf_counter()
                backend.run_program(compiled, database)
                best[slot] = min(best[slot], time.perf_counter() - started)
        return best

    def test_disabled_tracer_is_allocation_free(self):
        obs = Observability()
        backend = PythonExecutionBackend()
        backend.observability = obs
        # No tracer installed: the backend resolves to the shared no-op
        # span; nothing is allocated per call.
        assert obs.span("anything", a=1) is NULL_SPAN
        assert backend._tracer() is None

    @staticmethod
    def _calls(backend, compiled, base, entry):
        """``{(module, function): ncalls}`` of one run, counted by cProfile.

        The garbage collector is off while the run is profiled: a collection
        inside one run and not the other would add the calls of whatever gc
        callbacks are registered (Hypothesis registers one) to that run.
        Calls are summed over the profiler's raw entries: pstats keeps one
        entry per ``(file, line, name)``, which several functions can share.
        """
        database = base.copy()
        database.ensure_indexes(compiled.demanded_indexes)
        if entry == "propagate":
            backend.run_program(compiled, database)
        profile = cProfile.Profile()
        gc.disable()
        try:
            profile.enable()
            if entry == "propagate":
                backend.propagate(compiled, database, {"edge": {(-1, 0)}})
            else:
                backend.run_program(compiled, database)
            profile.disable()
        finally:
            gc.enable()
        calls: Counter = Counter()
        for stat in profile.getstats():
            code = stat.code  # a builtin's is its name
            if isinstance(code, str):
                calls[("~", code)] += stat.callcount
            else:
                calls[(Path(code.co_filename).stem, code.co_name)] += stat.callcount
        return calls

    @pytest.mark.parametrize("entry", ["run_program", "propagate"])
    def test_disabled_tracer_overhead_in_calls(self, entry):
        """The deterministic twin of the wall-clock budget below: with an
        ``Observability`` installed and no tracer, a run makes exactly the
        calls of the uninstrumented backend plus one ``active_tracer``
        lookup -- no registry call per rule application, no tracer call."""
        compiled, base = self._workload()
        bare = PythonExecutionBackend()
        observed = PythonExecutionBackend()
        observed.observability = Observability()  # registry, no tracer
        for backend in (bare, observed):  # warm the plan caches
            self._calls(backend, compiled, base, entry)
        bare_calls = self._calls(bare, compiled, base, entry)
        observed_calls = self._calls(observed, compiled, base, entry)
        added = {
            function: observed_calls.get(function, 0) - bare_calls.get(function, 0)
            for function in bare_calls.keys() | observed_calls.keys()
        }
        assert {function: count for function, count in added.items() if count} == {
            ("tracer", "active_tracer"): 1
        }
        assert bare_calls[("executor", "fire_rule")] >= 1  # rules did apply
        observed_modules = {module for module, _ in observed_calls}
        assert "metrics" not in observed_modules

    def test_disabled_tracer_overhead_within_budget(self):
        compiled, base = self._workload()
        bare = PythonExecutionBackend()
        observed = PythonExecutionBackend()
        observed.observability = Observability()  # registry, no tracer

        # Warm both (plan caches, interning) before timing.
        self._time((bare, observed), compiled, base, repeats=1)

        # Nominal budget is 2%; min-of-k interleaved timings are stable,
        # but leave headroom for scheduler noise on shared CI runners.
        # Three attempts, pass on the first that lands under the ceiling.
        ratio = float("inf")
        for _ in range(3):
            bare_best, observed_best = self._time((bare, observed), compiled, base)
            ratio = min(ratio, observed_best / bare_best)
            if ratio < 1.05:
                break
        assert ratio < 1.05, (
            f"disabled-tracer path is {ratio:.3f}x the uninstrumented backend"
        )
