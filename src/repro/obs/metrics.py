"""Typed metric instruments and the registry that owns them.

The observability layer's data model is deliberately Prometheus-shaped:
a registry holds *families* (one per metric name), a family holds one
*child* per label-value combination, and a child is the object the hot
path actually touches.  Three instrument kinds:

* :class:`Counter` — monotonically increasing count (``inc``);
* :class:`Gauge`   — a value that goes up and down (``set``/``inc``);
* :class:`Histogram` — fixed-bucket distribution (``observe``), with
  quantile estimation by linear interpolation inside the bucket.

Cost model (this is what keeps the simulation fast path honest):

* Counter/Gauge children are **always live**, registry enabled or not.
  A child increment is one attribute add — the same price as the
  ``engine.stats`` dict bump it replaced — so there is nothing worth
  gating, and protocol counters keep working in default (metrics-off)
  clusters.
* Histograms are the measurable extra (a bisect per observation), so a
  disabled registry hands out a shared no-op histogram child.
* Callback gauges (:meth:`MetricsRegistry.gauge_callback`) are read
  only at collection time — queue depths and state codes cost nothing
  between scrapes — and a disabled registry drops them entirely.

perfbench reports what instrumentation costs per action
(``obs.self_us_per_action``); ``tests/test_fig5a_pin.py`` checks that
enabling it leaves the simulation unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

LabelValues = Tuple[str, ...]

#: Default latency buckets (seconds): half a millisecond to a minute,
#: roughly log-spaced.  Covers live fsyncs (~0.5 ms), LAN green latency
#: (~11 ms with the paper's disk), and partition-length membership
#: outages (seconds).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 1]).

    Canonical home of the helper the benchmark suite also uses
    (re-exported by :mod:`repro.bench.metrics`).
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram: counts per bucket, plus sum and count.

    ``bounds`` are inclusive upper bounds; observations above the last
    bound land in the implicit +Inf bucket.  ``counts`` are *per
    bucket* (not cumulative); exporters cumulate for the Prometheus
    text format.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError(f"bucket bounds not increasing: {bounds}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (q in [0, 1]) from the buckets.

        Linear interpolation inside the bucket containing the target
        rank; the +Inf bucket reports the last finite bound (the
        histogram cannot see further).
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0.0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= target:
                if index >= len(self.bounds):        # +Inf bucket
                    return self.bounds[-1]
                low = self.bounds[index - 1] if index > 0 else 0.0
                high = self.bounds[index]
                fraction = (target - seen) / bucket_count
                return low + (high - low) * min(1.0, max(0.0, fraction))
            seen += bucket_count
        return self.bounds[-1]


class _NullHistogram:
    """Shared no-op histogram child handed out by a disabled registry."""

    __slots__ = ()
    bounds: Tuple[float, ...] = ()
    counts: List[int] = []
    sum = 0.0
    count = 0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


NULL_HISTOGRAM = _NullHistogram()

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class MetricFamily:
    """All children of one metric name, one child per label tuple."""

    def __init__(self, name: str, kind: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None,
                 live: bool = True) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None else None
        self.live = live
        self.children: Dict[LabelValues, Any] = {}

    def _make_child(self) -> Any:
        if self.kind == COUNTER:
            return Counter()
        if self.kind == GAUGE:
            return Gauge()
        if not self.live:
            return NULL_HISTOGRAM
        return Histogram(self.buckets if self.buckets is not None
                         else LATENCY_BUCKETS)

    def labels(self, *values: Any, fresh: bool = False) -> Any:
        """The child for ``values`` (created on first use).

        ``fresh=True`` replaces any existing child with a zeroed one —
        the counter-reset a component performs when it is rebuilt after
        a crash (exactly like a process restart under Prometheus).
        """
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {key}")
        child = self.children.get(key)
        if child is None or fresh:
            child = self.children[key] = self._make_child()
        return child

    def samples(self) -> Iterable[Tuple[LabelValues, Any]]:
        return self.children.items()


class MetricsRegistry:
    """Owns every instrument of one deployment (cluster or process).

    ``enabled=False`` keeps counters and gauges live (see the module
    docstring for why) but makes histograms no-ops and drops callback
    gauges; exporters work against either mode and simply show what the
    registry holds.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: Dict[str, MetricFamily] = {}
        self._callbacks: List[Tuple[str, LabelValues,
                                    Callable[[], float]]] = []
        self._collect_hooks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # instrument factories
    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help: str,
                labelnames: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = MetricFamily(
                name, kind, help, labelnames, buckets,
                live=(self.enabled or kind != HISTOGRAM))
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}")
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, COUNTER, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, GAUGE, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS
                  ) -> MetricFamily:
        return self._family(name, HISTOGRAM, help, labelnames, buckets)

    def gauge_callback(self, name: str, fn: Callable[[], float],
                       help: str = "",
                       labelnames: Sequence[str] = (),
                       labelvalues: Sequence[Any] = ()) -> None:
        """Register a gauge evaluated at collection time only.

        The reading costs nothing between scrapes — the right shape for
        queue depths, state codes, and mirrored component counters.  A
        disabled registry drops the registration entirely.
        """
        self._callback(name, GAUGE, fn, help, labelnames, labelvalues)

    def counter_callback(self, name: str, fn: Callable[[], float],
                         help: str = "",
                         labelnames: Sequence[str] = (),
                         labelvalues: Sequence[Any] = ()) -> None:
        """Register a counter mirrored from component state at
        collection time only.

        For components that already keep a monotonic native count on
        their hot path (WAL appends, disk writes): exporting through a
        callback keeps the instrument off that path entirely while the
        exposition still advertises counter semantics.
        """
        self._callback(name, COUNTER, fn, help, labelnames, labelvalues)

    def _callback(self, name: str, kind: str, fn: Callable[[], float],
                  help: str, labelnames: Sequence[str],
                  labelvalues: Sequence[Any]) -> None:
        if not self.enabled:
            return
        self._family(name, kind, help, labelnames)
        values = tuple(str(v) for v in labelvalues)
        self._callbacks.append((name, values, fn))

    def collect_hook(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the start of every collection.

        For instruments that batch hot-path updates natively and fold
        them in lazily (e.g. the span trackers' zero-gap green count).
        Dropped when the registry is disabled, like callbacks.
        """
        if not self.enabled:
            return
        self._collect_hooks.append(fn)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def collect(self) -> List[MetricFamily]:
        """Materialise callback gauges and return every family, sorted
        by name.  Callback gauges overwrite their child's value; a
        callback that raises reports NaN rather than killing a scrape."""
        for hook in self._collect_hooks:
            hook()
        for name, labelvalues, fn in self._callbacks:
            family = self._families[name]
            child = family.labels(*labelvalues)
            try:
                child.value = float(fn())
            except Exception:
                child.value = float("nan")
        return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot: metric name -> {labels-string: value}.

        Histograms render as ``{count, sum, p50, p95, p99}``.
        """
        doc: Dict[str, Any] = {}
        for family in self.collect():
            entry: Dict[str, Any] = {}
            for labelvalues, child in sorted(family.samples()):
                key = ",".join(labelvalues) if labelvalues else ""
                if family.kind == HISTOGRAM:
                    entry[key] = {
                        "count": child.count,
                        "sum": round(child.sum, 9),
                        "p50": round(child.quantile(0.50), 9),
                        "p95": round(child.quantile(0.95), 9),
                        "p99": round(child.quantile(0.99), 9),
                    }
                else:
                    entry[key] = child.value
            doc[family.name] = entry
        return doc

    def get_sample(self, name: str, *labelvalues: Any) -> Optional[Any]:
        """The child for (name, labels), or None if never registered."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(tuple(str(v) for v in labelvalues))

