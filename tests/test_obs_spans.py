"""Span tracking: unit semantics, plus a partition/remerge scenario.

The integration test is the observability layer's end-to-end contract:
run a real cluster through steady state, a partition, and a remerge,
and check that every tracker closed a span for every green, that
submit spans close only at originators, that membership spans closed
on the primary install, that vulnerable windows are not left dangling,
and that the batched zero-gap green count folds into the histogram
exactly.
"""

import asyncio

import pytest

from conftest import make_cluster
from repro.obs import MAX_COMPLETED, MetricsRegistry, Observability
from repro.obs.spans import SpanTracker
from repro.runtime import AsyncioRuntime, LiveCluster
from repro.tools.obsreport import build_report


# ----------------------------------------------------------------------
# unit: tracker semantics against a bare registry
# ----------------------------------------------------------------------

def make_tracker():
    registry = MetricsRegistry()
    return registry, SpanTracker(registry, node=1)


def histogram(registry, name):
    return registry.get_sample(f"repro_{name}_seconds", 1)


class TestSpanTrackerUnit:
    def test_submit_red_green_closes_a_span(self):
        registry, tracker = make_tracker()
        tracker.on_submit("a1", 1.0)
        tracker.on_red("a1", 2.0)
        tracker.on_green("a1", 5.0)
        red_green = histogram(registry, "action_red_to_green")
        submit_green = histogram(registry, "action_submit_to_green")
        assert (red_green.count, submit_green.count) == (1, 1)
        assert red_green.sum == pytest.approx(3.0)
        assert submit_green.sum == pytest.approx(4.0)
        # Closed: a second green of the same id has no red to measure.
        tracker.on_green("a1", 9.0)
        assert red_green.sum == pytest.approx(3.0)
        assert submit_green.count == 1

    def test_duplicate_submit_and_red_keep_first_timestamp(self):
        registry, tracker = make_tracker()
        tracker.on_submit("a1", 1.0)
        tracker.on_submit("a1", 1.5)
        tracker.on_red("a1", 2.0)
        tracker.on_red("a1", 3.0)
        tracker.on_green("a1", 4.0)
        assert histogram(registry, "action_red_to_green").sum \
            == pytest.approx(2.0)
        assert histogram(registry, "action_submit_to_green").sum \
            == pytest.approx(3.0)

    def test_green_without_red_is_zero_gap(self):
        registry, tracker = make_tracker()
        tracker.on_green("a1", 7.0)
        red_green = histogram(registry, "action_red_to_green")
        assert (red_green.count, red_green.sum) == (1, 0.0)
        assert red_green.counts[0] == 1
        assert histogram(registry, "action_submit_to_green").count == 0

    def test_instant_greens_flush_into_zero_bucket(self):
        registry, tracker = make_tracker()
        tracker.on_red("a1", 1.0)
        tracker.on_green("a1", 1.5)     # one observed span
        tracker.instant_greens += 3     # the engine's batched count
        assert tracker.greens_total == 4
        registry.collect()              # collect hook flushes
        assert tracker.instant_greens == 0
        assert tracker.greens_total == 4
        histogram = registry.get_sample(
            "repro_action_red_to_green_seconds", 1)
        assert histogram.count == 4
        assert histogram.counts[0] == 3          # zero-gap bucket
        assert histogram.sum == pytest.approx(0.5)

    def test_latency_percentiles_flush_first(self):
        _, tracker = make_tracker()
        tracker.instant_greens += 10
        p50, p95, p99 = tracker.latency_percentiles("red_to_green")
        assert tracker.instant_greens == 0
        # All mass in the first bucket: quantiles stay sub-bucket.
        assert p99 <= 0.0005

    def test_membership_span_is_idempotent_until_install(self):
        _, tracker = make_tracker()
        tracker.on_membership_start(1.0)
        tracker.on_membership_start(2.0)    # repeated exchange
        assert tracker.membership_open.started == 1.0
        tracker.on_install(4.0)
        assert tracker.membership_open is None
        assert tracker.membership_durations() == [pytest.approx(3.0)]

    def test_install_closes_the_vulnerable_window(self):
        registry, tracker = make_tracker()
        tracker.on_membership_start(1.0)
        tracker.open_vulnerable(2.0)
        tracker.open_vulnerable(2.5)        # second vote, same window
        tracker.on_install(3.0)
        assert tracker.vulnerable_open is None
        window = histogram(registry, "vulnerable_window")
        assert (window.count, window.sum) == (1, pytest.approx(1.0))

    def test_invalidated_attempt_closes_window_without_install(self):
        _, tracker = make_tracker()
        tracker.open_vulnerable(2.0)
        tracker.close_vulnerable(2.4)
        assert tracker.vulnerable_open is None
        assert tracker.membership_open is None


# ----------------------------------------------------------------------
# integration: partition / remerge on a live 5-node cluster
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def partitioned_run():
    """Steady load, a 3/2 partition, more load, heal, settle."""
    obs = Observability()
    cluster = make_cluster(5, seed=11, observability=obs)
    cluster.start_all(settle=1.0)
    for i in range(20):
        cluster.client(1 + i % 5).submit(("SET", f"k{i}", i))
    cluster.run_for(1.0)
    cluster.partition([1, 2, 3], [4, 5])
    cluster.run_for(1.5)
    for i in range(10):
        cluster.client(1 + i % 3).submit(("SET", f"p{i}", i))
    cluster.run_for(1.0)
    cluster.heal()
    cluster.run_for(3.0)
    cluster.assert_converged()
    return cluster, obs


class TestPartitionRemergeSpans:
    def test_every_tracker_saw_every_green(self, partitioned_run):
        cluster, obs = partitioned_run
        totals = {node: obs.trackers[node].greens_total
                  for node in cluster.server_ids}
        assert len(set(totals.values())) == 1, totals
        assert next(iter(totals.values())) >= 30

    def test_membership_spans_closed_on_install(self, partitioned_run):
        cluster, obs = partitioned_run
        for node in cluster.server_ids:
            tracker = obs.trackers[node]
            # Initial install, plus the partition and/or the remerge.
            assert len(tracker.membership_completed) >= 2
            assert tracker.membership_open is None
            for span in tracker.membership_completed:
                assert span.installed is not None
                assert span.installed >= span.started
        # The majority side installed without the minority, then again
        # on the merge: at least one more change than the minority saw.
        majority = len(obs.trackers[1].membership_completed)
        assert majority >= 3

    def test_vulnerable_windows_all_closed(self, partitioned_run):
        cluster, obs = partitioned_run
        for node in cluster.server_ids:
            tracker = obs.trackers[node]
            assert tracker.vulnerable_open is None
            window = obs.registry.get_sample(
                "repro_vulnerable_window_seconds", node)
            assert window.count >= 1
            assert window.sum >= 0.0

    def test_histogram_count_matches_greens_after_collect(
            self, partitioned_run):
        cluster, obs = partitioned_run
        totals = {node: obs.trackers[node].greens_total
                  for node in cluster.server_ids}
        doc = obs.snapshot()                 # collect() flushes trackers
        for node in cluster.server_ids:
            assert obs.trackers[node].instant_greens == 0
            entry = doc["repro_action_red_to_green_seconds"][str(node)]
            assert entry["count"] == totals[node]

    def test_submit_spans_only_at_originators(self, partitioned_run):
        cluster, obs = partitioned_run
        originated = sum(
            obs.registry.get_sample("repro_action_submit_to_green_seconds",
                                    node).count
            for node in cluster.server_ids)
        assert originated == 30              # one span per client submit

    def test_report_percentiles_are_finite_and_ordered(self,
                                                       partitioned_run):
        _, obs = partitioned_run
        for tracker in obs.trackers.values():
            p50, p95, p99 = \
                tracker.latency_percentiles("submit_to_green")
            assert 0.0 <= p50 <= p95 <= p99 < 60.0


# ----------------------------------------------------------------------
# whole-run counts outlive the span ring
# ----------------------------------------------------------------------

def test_membership_counts_are_exact_past_the_span_ring():
    """/status and obsreport count membership changes and vulnerable
    windows from the histograms, not from the bounded span ring."""
    cycles = MAX_COMPLETED + 1
    obs = Observability()
    loop = asyncio.new_event_loop()
    cluster = LiveCluster([1], runtime=AsyncioRuntime(loop),
                          observability=obs)
    try:
        tracker = obs.tracker(1)
        for cycle in range(cycles):
            tracker.on_membership_start(float(cycle))
            tracker.open_vulnerable(cycle + 0.25)
            tracker.on_install(cycle + 0.5)
        assert len(tracker.membership_completed) == MAX_COMPLETED
        status = cluster.status_doc()["replicas"]["1"]
        assert status["membership_changes"] == cycles
        report = build_report(obs)["replicas"]["1"]
        assert report["membership_changes"] == cycles
        assert report["membership_total_s"] == pytest.approx(cycles * 0.5)
        assert report["vulnerable_windows"] == cycles
    finally:
        cluster.shutdown()
        loop.close()
