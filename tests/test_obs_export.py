"""Exporters: Prometheus text + lint, JSON snapshot, live HTTP server.

The lint test doubles as the scrape contract for CI: the live-cluster
example serves ``/metrics`` and the workflow asserts the exposition
lints clean, so the linter itself is pinned here against both good and
deliberately broken documents.
"""

import asyncio
import json

import pytest

from conftest import make_cluster
from repro.obs import (MetricsRegistry, MetricsServer, Observability,
                       fetch_http, lint_prometheus, prometheus_text,
                       snapshot_json)


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter_callback("repro_test_total", lambda: 3, "A counter.",
                              ("server",), (1,))
    registry.gauge_callback("repro_test_depth", lambda: 2, "A gauge.",
                            ("server",), (1,))
    histogram = registry.histogram(
        "repro_test_seconds", "A histogram.",
        labelnames=("server",), buckets=(0.001, 0.01)).labels(1)
    histogram.observe(0.0005)
    histogram.observe(0.005)
    histogram.observe(5.0)
    return registry


class TestPrometheusText:
    def test_renders_types_and_series(self):
        text = prometheus_text(populated_registry())
        assert "# TYPE repro_test_total counter" in text
        assert 'repro_test_total{server="1"} 3' in text
        assert "# TYPE repro_test_seconds histogram" in text
        # Buckets are cumulative; +Inf equals _count.
        assert 'repro_test_seconds_bucket{server="1",le="0.001"} 1' in text
        assert 'repro_test_seconds_bucket{server="1",le="0.01"} 2' in text
        assert 'repro_test_seconds_bucket{server="1",le="+Inf"} 3' in text
        assert 'repro_test_seconds_count{server="1"} 3' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.gauge_callback("repro_test_depth", lambda: 1,
                                labelnames=("name",),
                                labelvalues=('a"b\\c\nd',))
        text = prometheus_text(registry)
        assert r'name="a\"b\\c\nd"' in text
        assert lint_prometheus(text) == []

    def test_populated_registry_lints_clean(self):
        assert lint_prometheus(prometheus_text(populated_registry())) == []

    def test_cluster_run_lints_clean(self):
        obs = Observability()
        cluster = make_cluster(3, observability=obs)
        cluster.start_all(settle=1.0)
        cluster.client(1).submit(("SET", "k", 1))
        cluster.run_for(1.0)
        text = obs.prometheus()
        assert lint_prometheus(text) == []
        assert "repro_action_red_to_green_seconds_bucket" in text
        assert "repro_wal_appends_total" in text
        assert "repro_disk_forced_writes" in text


class TestLint:
    def test_catches_sample_without_type(self):
        problems = lint_prometheus("repro_orphan_total 3\n")
        assert any("no preceding # TYPE" in p for p in problems)

    def test_catches_non_cumulative_buckets(self):
        text = ("# TYPE repro_x histogram\n"
                'repro_x_bucket{le="1"} 5\n'
                'repro_x_bucket{le="2"} 3\n')
        problems = lint_prometheus(text)
        assert any("non-cumulative" in p for p in problems)

    def test_catches_bad_value_and_negative_counter(self):
        text = ("# TYPE repro_a_total counter\n"
                "repro_a_total -1\n"
                "# TYPE repro_b_total counter\n"
                "repro_b_total noodles\n")
        problems = lint_prometheus(text)
        assert any("negative" in p for p in problems)
        assert any("bad value" in p for p in problems)

    def test_catches_duplicate_type(self):
        text = ("# TYPE repro_a_total counter\n"
                "# TYPE repro_a_total counter\n")
        assert any("duplicate TYPE" in p for p in lint_prometheus(text))

    def test_catches_malformed_type_line(self):
        assert lint_prometheus("# TYPE repro_a\n")


class TestJsonSnapshot:
    def test_round_trips_through_json(self):
        doc = json.loads(snapshot_json(populated_registry()))
        assert doc["repro_test_total"]["1"] == 3.0
        assert doc["repro_test_seconds"]["1"]["count"] == 3


class TestMetricsServer:
    """The live endpoint serves exactly what the registry holds."""

    def test_http_metrics_matches_direct_export(self):
        registry = populated_registry()

        async def scenario():
            server = await MetricsServer(registry, port=0).start()
            try:
                body = await fetch_http("127.0.0.1", server.port,
                                        "/metrics")
            finally:
                server.close()
                await server.wait_closed()
            return body

        body = asyncio.run(scenario())
        assert body == prometheus_text(registry)
        assert lint_prometheus(body) == []

    def test_http_status_serves_the_status_fn(self):
        async def scenario():
            server = await MetricsServer(
                MetricsRegistry(),
                status_fn=lambda: {"state": "RegPrim", "green": 7},
                port=0).start()
            try:
                body = await fetch_http("127.0.0.1", server.port,
                                        "/status")
            finally:
                server.close()
                await server.wait_closed()
            return json.loads(body)

        assert asyncio.run(scenario()) == {"state": "RegPrim",
                                           "green": 7}

    def test_unknown_path_is_404(self):
        async def scenario():
            server = await MetricsServer(MetricsRegistry(),
                                         port=0).start()
            try:
                await fetch_http("127.0.0.1", server.port, "/nope")
            finally:
                server.close()
                await server.wait_closed()

        with pytest.raises(RuntimeError):
            asyncio.run(scenario())

    def test_scrape_sees_live_updates(self):
        registry = MetricsRegistry()
        native = {"count": 0}
        registry.counter_callback("repro_test_total",
                                  lambda: native["count"])

        async def scrape_twice():
            server = await MetricsServer(registry, port=0).start()
            try:
                first = await fetch_http("127.0.0.1", server.port,
                                         "/metrics")
                native["count"] += 5
                second = await fetch_http("127.0.0.1", server.port,
                                          "/metrics")
            finally:
                server.close()
                await server.wait_closed()
            return first, second

        first, second = asyncio.run(scrape_twice())
        assert "repro_test_total 0" in first
        assert "repro_test_total 5" in second
