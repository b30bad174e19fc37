"""Unit tests for the metrics registry and the metric-name lint."""

import pytest

from repro.obs import METRIC_NAME_RE, MetricsRegistry, validate_metric_name


class TestNameLint:
    def test_dotted_lowercase_accepted(self):
        for name in ("sync.rounds", "net.bytes.sent", "store.quorum.degraded_writes"):
            assert validate_metric_name(name) == []
            assert METRIC_NAME_RE.match(name)

    def test_labelled_form_accepted(self):
        assert validate_metric_name("net.bytes.sent[Alaska]") == []
        assert validate_metric_name("net.bytes.sent[#archive]") == []

    def test_single_segment_rejected(self):
        assert validate_metric_name("rounds")

    def test_uppercase_and_dashes_rejected(self):
        assert validate_metric_name("Sync.rounds")
        assert validate_metric_name("sync.Rounds")
        assert validate_metric_name("sync-rounds.total")

    def test_diagnostic_code_components_rejected(self):
        # CDSS### is the static analyzer's diagnostic namespace; metric
        # names must not collide with it in any segment.
        assert validate_metric_name("cdss001.fired")
        assert validate_metric_name("lint.cdss013")
        assert validate_metric_name("cdss.fired") == []  # no digits: fine

    def test_registry_raises_on_bad_name(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter_add("BadName", 1)
        with pytest.raises(ValueError):
            registry.observe("cdss007.things", 1)


class TestCounters:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.counter_add("a.b", 2)
        registry.counter_add("a.b", 3)
        assert registry.counter_value("a.b") == 5

    def test_labels_roll_into_total(self):
        registry = MetricsRegistry()
        registry.counter_add("net.messages.sent", 1, label="A")
        registry.counter_add("net.messages.sent", 2, label="B")
        assert registry.counter_value("net.messages.sent") == 3
        assert registry.labelled_counters("net.messages.sent") == {"A": 1, "B": 2}
        assert registry.counter_value("net.messages.sent", label="B") == 2

    def test_snapshot_renders_labels_in_brackets(self):
        registry = MetricsRegistry()
        registry.counter_add("net.messages.sent", 1, label="A")
        snapshot = registry.snapshot()
        assert snapshot["net.messages.sent"] == 1
        assert snapshot["net.messages.sent[A]"] == 1

    def test_batched_adds_match_labelled_counter_adds(self):
        batched, single = MetricsRegistry(), MetricsRegistry()
        for size in (3, 5):
            batched.counters_add(
                ("net.bytes.sent", "net.bytes.sent[A]", "net.messages.sent"),
                (size, size, 1),
            )
            single.counter_add("net.bytes.sent", size, label="A")
            single.counter_add("net.messages.sent", 1)
        assert batched.snapshot() == single.snapshot()

    def test_batched_adds_check_the_base_name(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counters_add(("Bad.name[A]",), (1,))
        registry.counters_add(("net.bytes.sent[weird name]",), (1,))
        assert registry.counter_value("net.bytes.sent", label="weird name") == 1


class TestHistograms:
    def test_histogram_snapshot_keys(self):
        registry = MetricsRegistry()
        registry.observe("delta.size", 3)
        registry.observe("delta.size", 5)
        snapshot = registry.snapshot()
        assert snapshot["delta.size.count"] == 2
        assert snapshot["delta.size.total"] == 8
        assert snapshot["delta.size.min"] == 3
        assert snapshot["delta.size.max"] == 5


class TestSince:
    def test_counters_diff_and_zero_deltas_drop(self):
        registry = MetricsRegistry()
        registry.counter_add("a.b", 2)
        registry.counter_add("c.d", 1)
        before = registry.snapshot()
        registry.counter_add("a.b", 3)
        delta = registry.since(before)
        assert delta["a.b"] == 3
        assert "c.d" not in delta  # unchanged counters drop out

    def test_histogram_extremes_pass_through(self):
        """count/total diff like counters; min/max are high-water marks and
        report their current value."""
        registry = MetricsRegistry()
        registry.observe("h.v", 3)
        before = registry.snapshot()
        registry.observe("h.v", 7)
        delta = registry.since(before)
        assert (delta["h.v.count"], delta["h.v.total"]) == (1, 7)
        assert (delta["h.v.min"], delta["h.v.max"]) == (3, 7)

    def test_new_series_appear_whole(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.counter_add("fresh.series", 4)
        assert registry.since(before)["fresh.series"] == 4
