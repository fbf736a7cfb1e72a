"""Protocol observability: metrics registry, lifecycle spans, exporters.

One :class:`Observability` object per deployment (a simulated
:class:`~repro.core.ReplicaCluster` or a live
:class:`~repro.runtime.LiveCluster`) bundles the pieces:

* a :class:`~repro.obs.metrics.MetricsRegistry` shared by every node,
  with per-node children distinguished by a ``server`` label;
* one :class:`~repro.obs.spans.SpanTracker` per node, recording
  action red→green / submit→green latencies, membership-change
  durations, and vulnerable-window lengths;
* exporters (:mod:`repro.obs.export`): JSON snapshot, Prometheus text,
  and a live asyncio HTTP endpoint.

Disabled observability (the default for simulated clusters) keeps the
plain protocol counters alive — they are as cheap as the ad-hoc dicts
they replaced and several tests assert on them — while span tracking,
histograms, and callback gauges cost nothing.  See
``docs/OBSERVABILITY.md`` for the instrument catalog.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .export import (MetricsServer, fetch_http, lint_prometheus,
                     prometheus_text, snapshot_json)
from .flight import FlightHub, FlightRecorder, action_trace_id
from .metrics import (LATENCY_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, percentile)
from .spans import (DEFAULT_MAX_COMPLETED, ActionSpan, MembershipSpan,
                    SpanTracker)


class Observability:
    """Per-deployment bundle: registry + per-node span trackers.

    ``flight=True`` additionally turns on distributed tracing: every
    submitted action gets a deterministic trace id, and a per-node
    :class:`~repro.obs.flight.FlightRecorder` keeps a bounded ring of
    protocol events.  ``staleness=True`` (implies span tracking) lets
    replicas measure how far their green prefix lags the originator's
    submission time (see
    :meth:`~repro.obs.spans.SpanTracker.on_remote_green`).  Both are
    off by default so the hot paths stay a ``None``-check.
    """

    def __init__(self, enabled: bool = True,
                 registry: Optional[MetricsRegistry] = None,
                 max_completed_spans: int = DEFAULT_MAX_COMPLETED,
                 flight: bool = False,
                 flight_capacity: int = 8192,
                 staleness: bool = False):
        self.enabled = enabled
        self.registry = registry if registry is not None \
            else MetricsRegistry(enabled=enabled)
        self.max_completed_spans = max_completed_spans
        self.trackers: Dict[Any, SpanTracker] = {}
        self.staleness = staleness and enabled
        self.flight_hub: Optional[FlightHub] = \
            FlightHub(flight_capacity) if flight else None

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(enabled=False)

    def flight(self, node: Any) -> Optional[FlightRecorder]:
        """The flight recorder for ``node`` (None when tracing is off:
        hot paths keep a None-check instead of paying a call)."""
        hub = self.flight_hub
        return hub.recorder(node) if hub is not None else None

    def tracker(self, node: Any) -> Optional[SpanTracker]:
        """The span tracker for ``node`` (None when disabled: callers
        keep a None-check on the hot path instead of paying a call)."""
        if not self.enabled:
            return None
        tracker = self.trackers.get(node)
        if tracker is None:
            tracker = self.trackers[node] = SpanTracker(
                self.registry, node,
                max_completed=self.max_completed_spans)
        return tracker

    def prometheus(self) -> str:
        return prometheus_text(self.registry)

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()


__all__ = [
    "ActionSpan",
    "Counter",
    "FlightHub",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MembershipSpan",
    "MetricsRegistry",
    "MetricsServer",
    "Observability",
    "SpanTracker",
    "action_trace_id",
    "fetch_http",
    "lint_prometheus",
    "percentile",
    "prometheus_text",
    "snapshot_json",
]
