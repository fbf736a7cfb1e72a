"""Wall-clock runtime on a real asyncio event loop.

Implements the :class:`~repro.runtime.base.Runtime` protocol over
``asyncio``: ``now`` is the loop's monotonic clock re-based to zero at
runtime creation, timers map onto ``loop.call_later``/``call_at``, and
``call_soon`` preserves the kernel's FIFO-at-now semantics via the
loop's ready queue.  Work that is due now — ``post(0.0, ...)`` and
``post_at`` a time already reached — goes to the ready queue too, not
the timer heap: FIFO with ``call_soon`` exactly as on the kernel, and
no heap push and pop for a callback with nothing to wait for.

Semantics mirror :class:`~repro.sim.kernel.Simulator` where the
protocol stack can observe the difference:

* ``post``/``post_at`` allocate no handle and cannot be cancelled;
* ``schedule`` returns a handle whose ``active`` flag drops when the
  callback fires, not merely when it is cancelled (the GCS timers poll
  ``armed``);
* negative delays raise :class:`~repro.sim.kernel.SimulationError`
  exactly like the kernel, so timer misuse fails identically under
  both runtimes.

One deliberate divergence: ``post_at``/``schedule_at`` with a time in
the past *clamp to now* instead of raising.  Virtual time never drifts,
wall-clock time always does; a live component computing an absolute
deadline from a slightly stale ``now`` must not crash the node.

An exception escaping a callback does not stop the loop; asyncio hands
it to the loop's exception handler.  The runtime installs one that
counts it (:attr:`AsyncioRuntime.callback_errors`, with the last
context kept), records a ``runtime.callback_error`` event on the
``"runtime"`` node's event log once one is attached
(:meth:`AsyncioRuntime.observe`), and passes it on to the handler it
replaced.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..sim.kernel import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability
    from ..obs.flight import FlightRecorder

Callback = Callable[..., None]


class AsyncioHandle:
    """Cancellable reference to a callback scheduled on the loop.

    Mirrors :class:`~repro.sim.kernel.EventHandle`: ``active`` is False
    once the callback fired or was cancelled.
    """

    __slots__ = ("_timer", "_cancelled", "_fired")

    def __init__(self) -> None:
        self._timer: Optional[asyncio.TimerHandle] = None
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if not self._cancelled:
            self._cancelled = True
            if self._timer is not None:
                self._timer.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def active(self) -> bool:
        return not (self._cancelled or self._fired)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else (
            "fired" if self._fired else "pending")
        return f"<AsyncioHandle {state}>"


class AsyncioRuntime:
    """The :class:`Runtime` protocol over a live asyncio event loop.

    Construct it inside a running loop (or pass one explicitly); drive
    it with ordinary ``await asyncio.sleep(...)`` — the loop itself is
    the dispatch engine, there is no ``run()`` to call.  ``stop()``
    flips :attr:`stopped` (an :class:`asyncio.Event`) so a host harness
    awaiting :meth:`wait_stopped` can shut the deployment down.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None):
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._origin = self._loop.time()
        self._events_processed = 0
        self.stopped = asyncio.Event()
        self.callback_errors = 0
        self.last_callback_error: Optional[Dict[str, Any]] = None
        self._log: Optional["FlightRecorder"] = None
        self._previous_handler = self._loop.get_exception_handler()
        self._loop.set_exception_handler(self._on_loop_exception)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since this runtime was created (monotonic)."""
        return self._loop.time() - self._origin

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    @property
    def events_processed(self) -> int:
        """Callbacks dispatched through this runtime so far."""
        return self._events_processed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def post(self, delay: float, callback: Callback, *args: Any) -> None:
        """Fire-and-forget ``callback(*args)`` after ``delay`` seconds."""
        if delay > 0:
            self._loop.call_later(delay, self._dispatch, callback, args)
        elif delay == 0:
            self._loop.call_soon(self._dispatch, callback, args)
        else:
            raise SimulationError(f"cannot schedule in the past: {delay}")

    def post_at(self, time: float, callback: Callback, *args: Any) -> None:
        """Fire-and-forget at absolute runtime time ``time`` (run with
        the work due now if the wall clock already reached it)."""
        when = self._origin + time
        if when > self._loop.time():
            self._loop.call_at(when, self._dispatch, callback, args)
        else:
            self._loop.call_soon(self._dispatch, callback, args)

    def schedule(self, delay: float, callback: Callback,
                 *args: Any) -> AsyncioHandle:
        """Cancellable ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        handle = AsyncioHandle()
        handle._timer = self._loop.call_later(
            delay, self._dispatch_handle, handle, callback, args)
        return handle

    def schedule_at(self, time: float, callback: Callback,
                    *args: Any) -> AsyncioHandle:
        """Cancellable schedule at absolute runtime time ``time``."""
        handle = AsyncioHandle()
        when = self._origin + time
        loop_now = self._loop.time()
        handle._timer = self._loop.call_at(
            when if when > loop_now else loop_now,
            self._dispatch_handle, handle, callback, args)
        return handle

    def call_soon(self, callback: Callback, *args: Any) -> AsyncioHandle:
        """Run ``callback(*args)`` after everything already queued for
        now.  FIFO among ``call_soon`` callers, like the kernel."""
        handle = AsyncioHandle()
        handle._timer = self._loop.call_soon(  # type: ignore[assignment]
            self._dispatch_handle, handle, callback, args)
        return handle

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, callback: Callback, args: tuple) -> None:
        self._events_processed += 1
        callback(*args)

    def _dispatch_handle(self, handle: AsyncioHandle, callback: Callback,
                         args: tuple) -> None:
        if handle._cancelled:
            return
        handle._fired = True
        self._events_processed += 1
        callback(*args)

    def observe(self, obs: "Observability") -> None:
        """Record each callback error on ``obs``'s event log.  The
        first caller wins: clusters built on one shared runtime must
        record each error once."""
        if self._log is None:
            self._log = obs.flight_hub.recorder("runtime")

    def _on_loop_exception(self, loop: asyncio.AbstractEventLoop,
                           context: Dict[str, Any]) -> None:
        self.callback_errors += 1
        self.last_callback_error = context
        if self._log is not None:
            exc = context.get("exception")
            self._log.record(self.now, "runtime.callback_error", detail={
                "error": type(exc).__name__ if exc is not None else "",
                "message": context.get("message", "")})
        if self._previous_handler is None:
            loop.default_exception_handler(context)
        else:
            self._previous_handler(loop, context)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Signal the hosting harness to shut down (sets :attr:`stopped`)."""
        self.stopped.set()

    async def wait_stopped(self) -> None:
        await self.stopped.wait()

    async def sleep(self, duration: float) -> None:
        """Let the deployment run for ``duration`` wall-clock seconds."""
        await asyncio.sleep(duration)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<AsyncioRuntime now={self.now:.6f} "
                f"processed={self._events_processed}>")
