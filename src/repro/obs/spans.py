"""Action-lifecycle and membership spans.

The paper's performance claims are about *when* things happen, not just
how often: an action is multicast (red at the originator once it is
delivered back), becomes green when the primary component orders it,
and the end-to-end acknowledgment cost is paid only across membership
changes.  A :class:`SpanTracker` (one per node) records exactly those
intervals:

* **action spans** — submit (originator only) → red → green; closing a
  span feeds the ``red_to_green`` and ``submit_to_green`` latency
  histograms;
* **membership spans** — from the moment the node leaves steady state
  (transitional configuration, or entry into the exchange) until it
  installs a primary component;
* **vulnerable windows** — from voting for an installation attempt
  (the forced write before the CPC message) until the attempt's
  outcome is known (install, or the record is invalidated).

Timestamps come from the runtime clock the caller passes in, so the
same tracker serves virtual (simulated) and wall-clock time.

The histograms are exact over the whole run; action spans live only
as the bare timestamps of the still-open ones.  Membership spans are
additionally retained in a bounded ring (perfbench reads their
durations).  The steady-state majority of greens — red and green at
the same instant on a non-originator, because the primary orders an
action the moment it is delivered — carries no information beyond its
count, so the engine folds it into :attr:`SpanTracker.instant_greens`
(one integer add) and the tracker flushes that count into the zero
bucket of the red→green histogram at collection time.  That keeps
enabling observability cheap on the paper workloads (perfbench reports
it as ``obs.self_us_per_action``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry

#: Staleness probe sampling stride (a power of two): the engine feeds
#: one remote green in every ``STALENESS_STRIDE`` to
#: :meth:`SpanTracker.on_remote_green`'s histogram path.  Replica lag
#: is a statistical measure — percentiles over a 1-in-8 deterministic
#: sample match the full stream — and sampling keeps the probe's cost
#: on the ordering hot path to a counter increment.
STALENESS_STRIDE = 8

#: Capacity of the membership-span ring.  The histograms hold the exact
#: whole-run aggregates; the ring keeps recent samples, small enough
#: never to weigh on the heap.
MAX_COMPLETED = 4096


class MembershipSpan:
    """One membership change: steady state lost → primary installed."""

    __slots__ = ("started", "installed")

    def __init__(self, started: float) -> None:
        self.started = started
        self.installed: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        if self.installed is None:
            return None
        return self.installed - self.started


class SpanTracker:
    """Per-node span bookkeeping, feeding the shared registry.

    The action hot path stores bare timestamps keyed by action id (no
    per-action objects): a ``submit`` or ``red`` is one dict write, a
    ``green`` is a pop plus a histogram observation.
    """

    __slots__ = ("node", "_h_red_green", "_h_submit_green",
                 "_h_membership", "_h_vulnerable", "_red_at",
                 "_submit_at", "instant_greens", "membership_open",
                 "membership_completed", "vulnerable_open",
                 "_registry", "staleness_hist", "green_lag")

    def __init__(self, registry: MetricsRegistry, node: Any) -> None:
        label = str(node)
        self.node = node
        self._registry = registry
        self._h_red_green = registry.histogram(
            "repro_action_red_to_green_seconds",
            "Latency from local (red) order to global (green) order.",
            labelnames=("server",)).labels(label)
        self._h_submit_green = registry.histogram(
            "repro_action_submit_to_green_seconds",
            "Client submit to global order, at the originating server.",
            labelnames=("server",)).labels(label)
        self._h_membership = registry.histogram(
            "repro_membership_change_seconds",
            "Steady state lost until a primary component is installed.",
            labelnames=("server",)).labels(label)
        self._h_vulnerable = registry.histogram(
            "repro_vulnerable_window_seconds",
            "Voting for an installation attempt until its outcome is "
            "known.", labelnames=("server",)).labels(label)

        self._red_at: Dict[Any, float] = {}
        self._submit_at: Dict[Any, float] = {}
        # Zero-gap greens the engine recorded with a bare increment;
        # flushed into the red→green histogram's zero bucket by
        # :meth:`flush` (hooked into registry collection).
        self.instant_greens = 0
        registry.collect_hook(self.flush)
        self.membership_open: Optional[MembershipSpan] = None
        self.membership_completed: Deque[MembershipSpan] = \
            deque(maxlen=MAX_COMPLETED)
        self.vulnerable_open: Optional[float] = None
        # Staleness probe (opt-in, see :meth:`enable_staleness`): the
        # histogram is created lazily so deployments that never measure
        # replica lag pay nothing, not even an empty instrument.
        self.staleness_hist: Optional[Any] = None
        self.green_lag = 0.0

    # ------------------------------------------------------------------
    # action lifecycle
    # ------------------------------------------------------------------
    def on_submit(self, action_id: Any, now: float) -> None:
        if action_id not in self._submit_at:
            self._submit_at[action_id] = now

    def on_red(self, action_id: Any, now: float) -> None:
        if action_id not in self._red_at:
            self._red_at[action_id] = now

    def on_green(self, action_id: Any, now: float) -> None:
        """Close an *interesting* span: the originator's, or one whose
        red was recorded at an earlier instant.  (The engine counts the
        zero-gap steady-state majority via :attr:`instant_greens`
        instead of calling in here.)

        A green with no recorded red means both happened at this
        instant (steady-state ordering at the originator, or a
        retransmission that was never red here): the gap is zero by
        definition."""
        red = self._red_at.pop(action_id, now)
        gap = now - red
        # Inlined Histogram.observe: this runs once per green at the
        # originator, the hottest non-batched instrument there is.
        histogram = self._h_red_green
        histogram.counts[bisect_left(histogram.bounds, gap)] += 1
        histogram.sum += gap
        histogram.count += 1
        submitted = self._submit_at.pop(action_id, None)
        if submitted is not None:
            self._h_submit_green.observe(now - submitted)

    def flush(self) -> None:
        """Fold the batched zero-gap green count into the red→green
        histogram (zero lands in the first bucket; sum is unchanged)."""
        pending = self.instant_greens
        if pending:
            self.instant_greens = 0
            histogram = self._h_red_green
            histogram.counts[0] += pending
            histogram.count += pending

    @property
    def greens_total(self) -> int:
        """Exact number of closed action spans."""
        return self._h_red_green.count + self.instant_greens

    @property
    def membership_changes(self) -> int:
        """Exact number of closed membership spans (the ring keeps only
        the last :data:`MAX_COMPLETED`)."""
        return self._h_membership.count

    # ------------------------------------------------------------------
    # membership lifecycle
    # ------------------------------------------------------------------
    def on_membership_start(self, now: float) -> None:
        """Steady state lost.  Idempotent: repeated exchanges before an
        install extend the same span (the cost the paper cares about is
        time-to-primary, not per-exchange time)."""
        if self.membership_open is None:
            self.membership_open = MembershipSpan(now)

    def on_install(self, now: float) -> None:
        span = self.membership_open
        if span is not None:
            span.installed = now
            self._h_membership.observe(span.duration or 0.0)
            self.membership_completed.append(span)
            self.membership_open = None
        self.close_vulnerable(now)

    # ------------------------------------------------------------------
    # vulnerable window
    # ------------------------------------------------------------------
    def open_vulnerable(self, now: float) -> None:
        if self.vulnerable_open is None:
            self.vulnerable_open = now

    def close_vulnerable(self, now: float) -> None:
        opened = self.vulnerable_open
        if opened is not None:
            self._h_vulnerable.observe(now - opened)
            self.vulnerable_open = None

    # ------------------------------------------------------------------
    # staleness probe (opt-in)
    # ------------------------------------------------------------------
    def enable_staleness(self) -> None:
        """Register the staleness instruments for this node.

        Staleness is the replica-lag measure ROADMAP item 2 asks for:
        for a green action that originated *elsewhere*, the gap
        between the originator's submit instant (carried in the
        action's metadata) and the moment this replica ordered it
        green.  A current-lag gauge and a whole-run histogram are
        registered; both read plain attributes updated by
        :meth:`on_remote_green`.  The engine *samples* the probe —
        one remote green in every :data:`STALENESS_STRIDE` — so lag
        percentiles stay statistically faithful while the hot path
        pays only a counter increment on the unsampled greens."""
        if self.staleness_hist is not None:
            return
        label = str(self.node)
        self.staleness_hist = self._registry.histogram(
            "repro_staleness_seconds",
            "Originator submit to local green order, for actions "
            "originated at other replicas (replica lag).",
            labelnames=("server",)).labels(label)
        self._registry.gauge_callback(
            "repro_green_lag_seconds", lambda: self.green_lag,
            "Staleness of the most recent remotely-originated green "
            "action at this replica.", ("server",), (label,))

    def on_remote_green(self, submitted: float, now: float) -> None:
        """A green action originated at another replica: observe the
        submit→local-green lag.  Only called when staleness probing is
        enabled, on the engine's one-in-:data:`STALENESS_STRIDE`
        sample."""
        lag = now - submitted
        self.green_lag = lag
        self.staleness_hist.observe(lag)

    def staleness_percentiles(self, qs: Tuple[float, ...] =
                              (0.50, 0.95, 0.99)) -> Optional[List[float]]:
        """Replica-lag percentiles, or None when the probe is off or
        saw no remote greens."""
        histogram = self.staleness_hist
        if histogram is None or not histogram.count:
            return None
        return [histogram.quantile(q) for q in qs]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def latency_percentiles(self, which: str = "red_to_green",
                            qs: Tuple[float, ...] = (0.50, 0.95, 0.99)
                            ) -> List[float]:
        """Whole-run percentiles from the exact latency histograms
        (bucket-interpolated, Prometheus ``histogram_quantile`` style)."""
        self.flush()
        histogram = (self._h_red_green if which == "red_to_green"
                     else self._h_submit_green)
        return [histogram.quantile(q) for q in qs]

    def membership_durations(self) -> List[float]:
        return [span.duration for span in self.membership_completed
                if span.duration is not None]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SpanTracker node={self.node} "
                f"open={len(self._red_at) + len(self._submit_at)} "
                f"greens={self.greens_total}>")

