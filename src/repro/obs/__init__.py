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

Every count is a plain attribute of the component that keeps it
(``engine.stats``, ``disk.forced_writes``, the daemon's gather rounds);
the registry reads them through callbacks at collection time, and only
histograms are pushed into.  Disabled observability (the default for
simulated clusters) registers nothing: the registry stays empty, there
are no span trackers, and the counts stay readable on their
components.  See ``docs/OBSERVABILITY.md`` for the instrument catalog.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .export import (MetricsServer, fetch_http, lint_prometheus,
                     prometheus_text, snapshot_json)
from .flight import FlightHub, FlightRecorder, action_trace_id
from .metrics import (LATENCY_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, percentile)
from .spans import MAX_COMPLETED, MembershipSpan, SpanTracker


class Observability:
    """Per-deployment bundle: registry, per-node span trackers, and
    the per-node event log (:attr:`flight_hub`).

    ``enabled`` is the one metrics switch: components register their
    instruments, and span trackers exist, only while it is set.  The
    event log always records the rare protocol events (state
    transitions, view installs, suspicions, crashes; see
    :mod:`repro.obs.flight`).  ``flight=True`` additionally turns on
    distributed tracing: every submitted action gets a deterministic
    trace id, and the engine logs its submit/send/recv/red/green
    events.  ``staleness=True`` (implies span tracking) lets replicas
    measure how far their green prefix lags the originator's
    submission time (see
    :meth:`~repro.obs.spans.SpanTracker.on_remote_green`).  Both are
    off by default so the hot paths stay a ``None``-check.
    """

    def __init__(self, enabled: bool = True,
                 flight: bool = False,
                 staleness: bool = False) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.trackers: Dict[Any, SpanTracker] = {}
        self.staleness = staleness and enabled
        self.traced = flight
        self.flight_hub = FlightHub()

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(enabled=False)

    def flight(self, node: Any) -> Optional[FlightRecorder]:
        """``node``'s event log when per-action tracing is on, else
        None (hot paths keep a None-check instead of paying a call)."""
        return self.flight_hub.recorder(node) if self.traced else None

    def tracker(self, node: Any) -> Optional[SpanTracker]:
        """The span tracker for ``node`` (None when disabled: callers
        keep a None-check on the hot path instead of paying a call)."""
        if not self.enabled:
            return None
        tracker = self.trackers.get(node)
        if tracker is None:
            tracker = self.trackers[node] = SpanTracker(self.registry,
                                                        node)
        return tracker

    def prometheus(self) -> str:
        return prometheus_text(self.registry)

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()


__all__ = [
    "Counter",
    "FlightHub",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MAX_COMPLETED",
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
