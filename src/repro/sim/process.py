"""Actor and timer helpers on top of the simulation kernel.

Protocol components (GCS daemons, replication engines, disks) are
long-lived actors that own timers.  ``Timer`` wraps a cancellable
:class:`~repro.runtime.base.Handle` with restart/stop semantics, and
``Actor`` provides a namespace for timers so a crashing node can cancel
everything it scheduled in one call (a crash must erase volatile state
*and* silence future callbacks).

Despite living under ``repro.sim``, these helpers are runtime-agnostic:
they only use the :class:`~repro.runtime.base.Runtime` protocol
(``now``, ``schedule``, ``schedule_at``), so the same timers drive a
node under the discrete-event kernel and under
:class:`~repro.runtime.AsyncioRuntime`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.base import Handle, Runtime


class Timer:
    """A restartable one-shot or periodic timer.

    A ``Timer`` is created stopped.  ``start()`` (re)arms it;
    ``stop()`` disarms it.  For periodic timers the callback runs every
    ``interval`` seconds until stopped.
    """

    def __init__(self, sim: "Runtime", callback: Callable[[], None],
                 interval: float, periodic: bool = False):
        if interval < 0:
            raise ValueError(f"negative timer interval: {interval}")
        self._sim = sim
        self._callback = callback
        self.interval = interval
        self.periodic = periodic
        self._handle: Optional["Handle"] = None

    @property
    def armed(self) -> bool:
        return self._handle is not None and self._handle.active

    def start(self, interval: Optional[float] = None) -> None:
        """Arm the timer, replacing any pending expiry."""
        if interval is not None:
            self.interval = interval
        self.stop()
        self._handle = self._sim.schedule(self.interval, self._fire)

    def start_at(self, time: float) -> None:
        """Arm the timer for absolute runtime ``time``, replacing any
        pending expiry; ``interval`` is left as it was."""
        self.stop()
        self._handle = self._sim.schedule_at(time, self._fire)

    def restart(self) -> None:
        """Alias for :meth:`start` with the current interval."""
        self.start()

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        if self.periodic:
            self._handle = self._sim.schedule(self.interval, self._fire)
        self._callback()


class ServiceQueue:
    """A FIFO service resource (e.g. one node's CPU).

    ``take(cost)`` reserves the next ``cost`` seconds of the resource
    and returns the absolute completion time.  Models per-action
    processing limits: a node applying replicated actions at rate R
    saturates when R * cost reaches 1.
    """

    def __init__(self, sim: "Runtime"):
        self._sim = sim
        self._free_at = 0.0

    def take(self, cost: float) -> float:
        start = max(self._sim.now, self._free_at)
        self._free_at = start + cost
        return self._free_at

    @property
    def backlog(self) -> float:
        """Seconds of queued work not yet completed."""
        return max(0.0, self._free_at - self._sim.now)

    def reset(self) -> None:
        self._free_at = 0.0


class Actor:
    """Base class for simulated components that own timers.

    Subclasses create timers with :meth:`make_timer`; :meth:`cancel_all`
    silences every timer at once (used on crash).
    """

    def __init__(self, sim: "Runtime", name: str = ""):
        self.sim = sim
        self.name = name or type(self).__name__
        self._timers: Dict[str, Timer] = {}

    def make_timer(self, key: str, callback: Callable[[], None],
                   interval: float, periodic: bool = False) -> Timer:
        timer = Timer(self.sim, callback, interval, periodic=periodic)
        self._timers[key] = timer
        return timer

    def timer(self, key: str) -> Timer:
        return self._timers[key]

    def cancel_all(self) -> None:
        for timer in self._timers.values():
            timer.stop()

    def after(self, delay: float, callback: Callable[..., None],
              *args: Any) -> "Handle":
        """Schedule a raw one-shot callback (not tracked by cancel_all)."""
        return self.sim.schedule(delay, callback, *args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
