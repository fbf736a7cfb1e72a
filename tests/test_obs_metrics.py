"""Metrics registry: instruments, labels, callbacks, collection."""

import math

import pytest

from repro.obs.metrics import (LATENCY_BUCKETS, Histogram, MetricsRegistry,
                               percentile)


class TestInstruments:
    def test_histogram_buckets_and_sum(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            histogram.observe(value)
        # le-inclusive bounds; the last observation lands in +Inf.
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(106.0)
        assert histogram.mean == pytest.approx(21.2)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0, 2.0))

    def test_quantile_interpolates_inside_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        for _ in range(10):
            histogram.observe(1.5)          # all mass in (1, 2]
        assert histogram.quantile(0.5) == pytest.approx(1.5)
        assert histogram.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_caps_at_last_finite_bound(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(50.0)             # +Inf bucket
        assert histogram.quantile(0.99) == 1.0

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_percentile_helper_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile([], 0.5) == 0.0


class TestRegistry:
    def test_families_deduplicate_by_name(self):
        registry = MetricsRegistry()
        first = registry.histogram("repro_test_seconds",
                                   labelnames=("server",))
        second = registry.histogram("repro_test_seconds",
                                    labelnames=("server",))
        assert first is second

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("repro_test_total")
        with pytest.raises(ValueError):
            registry.gauge_callback("repro_test_total", lambda: 0.0)

    def test_label_arity_enforced(self):
        registry = MetricsRegistry()
        family = registry.histogram("repro_test_seconds",
                                    labelnames=("server",))
        with pytest.raises(ValueError):
            family.labels("a", "b")

    def test_children_keyed_by_label_values(self):
        registry = MetricsRegistry()
        family = registry.histogram("repro_test_seconds",
                                    labelnames=("server",))
        family.labels(1).observe(0.1)
        family.labels(1).observe(0.2)
        family.labels(2).observe(0.3)
        assert family.labels(1).count == 2
        assert family.labels(2).count == 1

    def test_counter_callback_mirrors_native_count(self):
        registry = MetricsRegistry()
        native = {"appends": 0}
        registry.counter_callback("repro_test_total",
                                  lambda: native["appends"],
                                  labelnames=("server",), labelvalues=(1,))
        native["appends"] = 7
        registry.collect()
        assert registry.get_sample("repro_test_total", 1).value == 7.0
        native["appends"] = 9
        assert registry.snapshot()["repro_test_total"]["1"] == 9.0

    def test_get_sample_reads_callbacks_first(self):
        """No collection has run yet: the sample is read on demand."""
        registry = MetricsRegistry()
        native = {"greens": 4}
        registry.counter_callback("repro_test_total",
                                  lambda: native["greens"],
                                  labelnames=("server",), labelvalues=(1,))
        assert registry.get_sample("repro_test_total", 1).value == 4.0
        native["greens"] = 6
        assert registry.get_sample("repro_test_total", 1).value == 6.0

    def test_failing_callback_reports_nan_not_raise(self):
        registry = MetricsRegistry()
        registry.gauge_callback("repro_test_depth",
                                lambda: 1 / 0,
                                labelnames=("server",), labelvalues=(1,))
        registry.collect()
        assert math.isnan(registry.get_sample("repro_test_depth", 1).value)

    def test_collect_hook_runs_before_callbacks(self):
        registry = MetricsRegistry()
        order = []
        registry.collect_hook(lambda: order.append("hook"))
        registry.gauge_callback("repro_test_depth",
                                lambda: order.append("callback") or 0.0)
        registry.collect()
        assert order == ["hook", "callback"]

    def test_collect_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter_callback("repro_b_total", lambda: 0)
        registry.histogram("repro_a_seconds").labels()
        assert [f.name for f in registry.collect()] == \
            ["repro_a_seconds", "repro_b_total"]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter_callback("repro_test_total", lambda: 3,
                                  labelnames=("server",), labelvalues=(1,))
        histogram = registry.histogram(
            "repro_test_seconds", labelnames=("server",)).labels(1)
        histogram.observe(0.002)
        doc = registry.snapshot()
        assert doc["repro_test_total"]["1"] == 3.0
        entry = doc["repro_test_seconds"]["1"]
        assert entry["count"] == 1
        assert entry["sum"] == pytest.approx(0.002)
        assert set(entry) == {"count", "sum", "p50", "p95", "p99"}

    def test_get_sample_unknown_returns_none(self):
        registry = MetricsRegistry()
        assert registry.get_sample("repro_missing_total") is None

    def test_histogram_default_buckets_are_latency_buckets(self):
        registry = MetricsRegistry()
        child = registry.histogram("repro_test_seconds").labels()
        assert child.bounds == LATENCY_BUCKETS
