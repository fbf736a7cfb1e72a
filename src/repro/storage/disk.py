"""Simulated stable storage device.

The paper's performance story is driven by *forced* disk writes: the
replication engine pays one per action (at the originator), COReL one
per action at every replica, and two-phase commit two per action in the
critical path.  Figure 5(b) isolates exactly this cost by re-running the
engine with delayed (asynchronous) writes.

The model: a disk serves synchronous flushes one *batch* at a time.  A
forced write enqueues a request; whenever the platter is free, all
queued requests are committed together in a single sync taking
``forced_write_latency`` (group commit, which every real engine and DBMS
does).  ``max_batch`` can be set to 1 to disable batching (ablation
E7).  Delayed writes complete after ``async_write_latency`` without
durability: a crash loses them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability
    from ..runtime.base import Runtime

#: Sync-wait buckets: sub-millisecond (live profile) up to a second of
#: group-commit queueing.
SYNC_WAIT_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                     0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)

Callback = Callable[[], None]


@dataclass
class DiskProfile:
    """Timing parameters for the simulated disk.

    forced_write_latency   one platter sync (seek + rotate + write + ack)
    async_write_latency    buffered write acknowledged from cache
    max_batch              max requests folded into one sync (group
                           commit); ``None`` means unlimited
    """

    forced_write_latency: float = 0.0095
    async_write_latency: float = 0.00005
    max_batch: Optional[int] = None


class WriteRequest:
    """One outstanding forced write.

    ``replace`` marks a log-rewrite request: on completion the payload
    (a list) atomically *replaces* the durable contents instead of
    being appended — the compaction primitive (write new log file,
    rename over the old one).  ``extend`` marks a flush: the payload is
    the list of buffered writes it makes durable, in write order.
    """

    __slots__ = ("payload", "callback", "issued_at", "replace", "extend")

    def __init__(self, payload: Any, callback: Optional[Callback],
                 issued_at: float, replace: bool = False,
                 extend: bool = False):
        self.payload = payload
        self.callback = callback
        self.issued_at = issued_at
        self.replace = replace
        self.extend = extend


class SimulatedDisk:
    """A per-node disk with durable and volatile regions.

    ``durable`` holds payloads whose write completed (synced, or
    asynchronously flushed), in the order their requests were issued:
    the requests of one group commit land in queue order, so a flush
    issued before a rewrite is subsumed by it, never appended after it.
    ``volatile`` holds async-written payloads still in cache.
    :meth:`crash` discards the cache and all pending requests without
    invoking their callbacks.
    """

    def __init__(self, sim: "Runtime", node: int,
                 profile: Optional[DiskProfile] = None,
                 obs: Optional["Observability"] = None):
        self.sim = sim
        self.node = node
        self.profile = profile or DiskProfile()
        # fsync accounting: a latency histogram fed per completed
        # request, plus collection-time mirrors of the counters below
        # (zero cost between scrapes).
        self._h_sync_wait = None
        if obs is not None and obs.enabled:
            registry = obs.registry
            self._h_sync_wait = registry.histogram(
                "repro_disk_sync_wait_seconds",
                "Issue-to-durable wait of forced writes (group commit "
                "queueing included).", ("server",),
                buckets=SYNC_WAIT_BUCKETS).labels(node)
            for name, help, fn in (
                    ("repro_disk_forced_writes",
                     "Forced (synchronous) writes issued.",
                     lambda: self.forced_writes),
                    ("repro_disk_syncs",
                     "Platter syncs performed (group commits).",
                     lambda: self.syncs),
                    ("repro_disk_async_writes",
                     "Buffered (asynchronous) writes issued.",
                     lambda: self.async_writes)):
                registry.gauge_callback(name, fn, help,
                                        ("server",), (node,))
        self.durable: List[Any] = []
        self.volatile: List[Any] = []
        self._queue: List[WriteRequest] = []
        self._busy = False
        self._incarnation = 0
        self.forced_writes = 0
        self.syncs = 0
        self.async_writes = 0
        self.total_sync_wait = 0.0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write(self, payload: Any, callback: Optional[Callback] = None,
              forced: bool = True) -> None:
        """Write ``payload``; invoke ``callback`` when it is durable
        (forced) or buffered (async)."""
        if forced:
            self.forced_writes += 1
            request = WriteRequest(payload, callback, self.sim.now)
            self._queue.append(request)
            self._maybe_start_sync()
        else:
            self.async_writes += 1
            self.volatile.append(payload)
            latency = self.profile.async_write_latency
            # A completion nobody waits on, due now, would be an empty
            # event; the simulator's nonzero latency keeps its event.
            if callback is not None or latency:
                self.sim.post(latency, self._async_done, callback,
                              self._incarnation)

    def _async_done(self, callback: Optional[Callback],
                    incarnation: int) -> None:
        if incarnation != self._incarnation:
            return
        if callback is not None:
            callback()

    def rewrite(self, contents: List[Any],
                callback: Optional[Callback] = None) -> None:
        """Atomically replace the durable contents (log compaction).

        The replacement happens at sync completion; a crash mid-rewrite
        leaves the previous durable contents intact (the new log is
        written to the side and renamed over the old one).
        """
        self.forced_writes += 1
        request = WriteRequest(list(contents), callback, self.sim.now,
                               replace=True)
        self._queue.append(request)
        self._maybe_start_sync()

    def flush(self, callback: Optional[Callback] = None,
              on_durable: Optional[Callback] = None) -> None:
        """Force everything buffered (async region) onto the platter.

        An empty buffer means there is nothing to make durable: no
        platter sync is scheduled (and no forced write is counted) —
        the callback fires on the next kernel tick, after anything
        already queued for the current instant.

        ``on_durable`` runs inside the sync that makes this call's
        staged records durable, just before ``callback``.  It is never
        scheduled on its own: with nothing staged it is dropped (every
        earlier record went to an earlier sync), so it costs no event.
        """
        if not self.volatile:
            if callback is not None:
                incarnation = self._incarnation
                def complete() -> None:
                    if incarnation == self._incarnation:
                        callback()
                self.sim.post(0.0, complete)
            return
        staged = self.volatile
        self.volatile = []
        def durable() -> None:
            if on_durable is not None:
                on_durable()
            if callback is not None:
                callback()
        request = WriteRequest(staged, durable, self.sim.now, extend=True)
        self.forced_writes += 1
        self._queue.append(request)
        self._maybe_start_sync()

    # ------------------------------------------------------------------
    # sync engine (group commit)
    # ------------------------------------------------------------------
    def _maybe_start_sync(self) -> None:
        if self._busy or not self._queue:
            return
        limit = self.profile.max_batch
        batch = self._queue if limit is None else self._queue[:limit]
        self._queue = [] if limit is None else self._queue[limit:]
        self._busy = True
        self.syncs += 1
        incarnation = self._incarnation
        self.sim.post(self.profile.forced_write_latency,
                      self._sync_done, batch, incarnation)

    def _sync_done(self, batch: List[WriteRequest],
                   incarnation: int) -> None:
        if incarnation != self._incarnation:
            return  # disk crashed while syncing; batch lost
        self._busy = False
        now = self.sim.now
        histogram = self._h_sync_wait
        for request in batch:
            if request.extend:
                self.durable.extend(request.payload)
            elif request.replace:
                self.durable = list(request.payload)
            else:
                self.durable.append(request.payload)
            wait = now - request.issued_at
            self.total_sync_wait += wait
            if histogram is not None:
                # Inlined Histogram.observe: one sync per forced write
                # per node makes this the hottest storage instrument.
                histogram.counts[bisect_left(histogram.bounds, wait)] += 1
                histogram.sum += wait
                histogram.count += 1
        # Start the next batch before callbacks so re-entrant writes
        # join a later batch rather than racing this one.
        self._maybe_start_sync()
        for request in batch:
            if request.callback is not None:
                request.callback()

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power failure: cache and in-flight syncs are lost; durable
        contents survive.  Pending callbacks never fire."""
        self._incarnation += 1
        self._busy = False
        self._queue = []
        self.volatile = []

    def recover(self) -> List[Any]:
        """Return the durable contents (the recovery scan)."""
        return list(self.durable)

    @property
    def mean_sync_wait(self) -> float:
        done = self.forced_writes
        return self.total_sync_wait / done if done else 0.0
