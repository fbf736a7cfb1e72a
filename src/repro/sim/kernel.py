"""Discrete-event simulation kernel.

Everything in this reproduction — network, disks, group communication,
the replication engine, the benchmark clients — runs on a single-threaded
discrete-event simulator.  Components schedule callbacks at virtual
timestamps; the kernel pops them in timestamp order (FIFO among equal
timestamps) and invokes them.  Virtual time is a float number of seconds.

Determinism is a hard requirement: two runs with the same seed and the
same scenario must produce bit-identical traces.  The kernel therefore
breaks timestamp ties with a monotonically increasing sequence number and
never consults wall-clock time or unseeded randomness.

Two scheduling paths share one heap:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  cancellable :class:`EventHandle`; the heap entry is a
  ``(time, seq, handle)`` triple.
* :meth:`Simulator.post` / :meth:`Simulator.post_at` are the
  fire-and-forget fast path: the heap entry is a raw
  ``(time, seq, callback, args)`` tuple and no handle object is ever
  allocated.  The bulk of simulation traffic (network hops, disk syncs,
  completion notifications) never cancels, so this is the common case.

Entries are totally ordered by the unique ``(time, seq)`` prefix, so the
two shapes coexist in the heap without ever comparing their tails.
Cancellation stays lazy, but the kernel counts lazily-cancelled entries
and compacts the heap in place once they outnumber the live ones
(periodic timers cancel/reschedule constantly; without compaction the
heap grows with the number of *restarts*, not the number of live
timers).  Compaction re-heapifies, which cannot perturb dispatch order
because ``(time, seq)`` is a total order.

The kernel is the hottest code in every figure, so it stays fully
annotated, free of dynamic attribute tricks, and structured around
one tight monomorphic dispatch loop.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, List, Optional, Tuple, final

# Compact only above this heap size: tiny heaps are cheap to scan and
# compacting them would just add churn.
_COMPACT_MIN = 64


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


@final
class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the heap entry stays in place but is skipped
    when popped.  ``active`` is False once the event fired or was
    cancelled.
    """

    __slots__ = ("sim", "time", "seq", "callback", "args", "_cancelled",
                 "_fired")

    def __init__(self, sim: "Simulator", time: float, seq: int,
                 callback: Callable[..., None],
                 args: Tuple[Any, ...]) -> None:
        self.sim = sim
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self._cancelled:
            self._cancelled = True
            if not self._fired:
                self.sim._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def active(self) -> bool:
        return not (self._cancelled or self._fired)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else (
            "fired" if self._fired else "pending")
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        sim.schedule(0.5, callback, arg1, arg2)
        sim.run()                 # run to quiescence
        sim.run(until=10.0)       # or up to a virtual deadline

    It is the deterministic :class:`~repro.runtime.base.Runtime`:
    ``ReplicaCluster`` pairs it with :class:`~repro.net.Network`.
    """

    __slots__ = ("now", "_heap", "_seq", "_running", "_events_processed",
                 "_stopped", "_cancelled_in_heap", "peak_heap")

    def __init__(self) -> None:
        # ``now`` is a plain attribute, not a property: it is read on
        # every scheduling call and every event-log record in the system.
        self.now = 0.0
        self._heap: List[tuple] = []
        self._seq: Iterator[int] = itertools.count()
        self._running = False
        self._events_processed = 0
        self._stopped = False
        # lazily-cancelled EventHandle entries still sitting in the heap
        self._cancelled_in_heap = 0
        self.peak_heap = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total number of events dispatched so far."""
        return self._events_processed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        handle = EventHandle(self, self.now + delay, next(self._seq),
                             callback, args)
        heappush(self._heap, (handle.time, handle.seq, handle))
        return handle

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self.now})")
        handle = EventHandle(self, time, next(self._seq), callback, args)
        heappush(self._heap, (time, handle.seq, handle))
        return handle

    def post(self, delay: float, callback: Callable[..., None],
             *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle` is
        allocated, so the event cannot be cancelled."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        heappush(self._heap,
                 (self.now + delay, next(self._seq), callback, args))

    def post_at(self, time: float, callback: Callable[..., None],
                *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` (no cancellation)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self.now})")
        heappush(self._heap, (time, next(self._seq), callback, args))

    def call_soon(self, callback: Callable[..., None],
                  *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current time (after the
        currently-running event and anything already queued for now)."""
        return self.schedule(0.0, callback, *args)

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._cancelled_in_heap += 1
        heap = self._heap
        if (len(heap) >= _COMPACT_MIN
                and self._cancelled_in_heap * 2 > len(heap)):
            # In-place so aliases held by a running dispatch loop stay
            # valid; heapify preserves dispatch order ((time, seq) is a
            # total order).
            heap[:] = [entry for entry in heap
                       if len(entry) != 3 or not entry[2]._cancelled]
            heapify(heap)
            self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single next event.  Returns False when idle."""
        heap = self._heap
        while heap:
            if len(heap) > self.peak_heap:
                self.peak_heap = len(heap)
            entry = heappop(heap)
            if len(entry) == 3:
                handle = entry[2]
                if handle._cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                self.now = entry[0]
                handle._fired = True
                self._events_processed += 1
                handle.callback(*handle.args)
            else:
                self.now = entry[0]
                self._events_processed += 1
                entry[2](*entry[3])
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run events until quiescence or a deadline.

        ``until`` is an absolute virtual time; events at exactly ``until``
        still run.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        peak = self.peak_heap
        deadline = float("inf") if until is None else until
        heap = self._heap  # stable alias: compaction mutates in place
        try:
            self._dispatch(heap, deadline, peak)
            if until is not None and self.now < until:
                self.now = until
        finally:
            if len(heap) > self.peak_heap:
                self.peak_heap = len(heap)
            self._running = False

    def _dispatch(self, heap: List[tuple], deadline: float,
                  peak: int) -> None:
        """The hot dispatch loop.

        Entries are popped before the deadline test — the one
        past-deadline entry is pushed back, trading a single push per
        ``run()`` for never peeking ``heap[0]`` separately per event.
        Peak size is sampled at pop time: the heap only grows between
        two pops, so its size here is the running maximum since the
        previous event (the push side stays check-free).
        """
        processed = 0
        try:
            while heap and not self._stopped:
                if len(heap) > peak:
                    peak = len(heap)
                entry = heappop(heap)
                time: float = entry[0]
                if time > deadline:
                    heappush(heap, entry)
                    break
                if len(entry) == 4:
                    self.now = time
                    processed += 1
                    entry[2](*entry[3])
                else:
                    handle = entry[2]
                    if handle._cancelled:
                        self._cancelled_in_heap -= 1
                        continue
                    self.now = time
                    processed += 1
                    handle._fired = True
                    handle.callback(*handle.args)
        finally:
            # Flushed once per run rather than incremented per event;
            # nothing consumes the counter mid-dispatch.
            self._events_processed += processed
            if peak > self.peak_heap:
                self.peak_heap = peak

    def stop(self) -> None:
        """Stop the currently-running :meth:`run` after the current event."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue
        (lazily-cancelled entries are excluded)."""
        return len(self._heap) - self._cancelled_in_heap

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Simulator now={self.now:.6f} pending={self.pending} "
                f"processed={self._events_processed}>")
