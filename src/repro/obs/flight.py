"""Per-node flight recorder: a bounded ring of protocol events.

Post-mortem debugging of a replicated protocol needs the *last N
things each node did* — state transitions, view installs, message
send/receive pairs, retransmissions, WAL syncs —
cheap enough to leave on in production and structured enough to merge
across nodes into one causal timeline (``repro-trace``,
:mod:`repro.tools.tracecli`).

Design constraints, in order:

* **Deterministic.**  The recorder never reads a clock, posts no
  runtime events, and consumes no randomness: every ``record`` call
  takes the caller's Runtime timestamp as a parameter.  Recording is
  therefore invisible to the simulator — the fig5a determinism pin
  holds with tracing on.  ``tests/test_import_policy.py`` enforces
  this structurally: this module may not import a time source or
  evaluate ``.now``.
* **Allocation-light.**  One bounded deque of tuples per node;
  recording is a single C-level append (the engine caches the bound
  ``ring.append``).  No dicts or objects on the hot path.
* **Bounded.**  ``capacity`` caps memory per node; the ring keeps the
  newest events.

A :class:`FlightHub` owns the per-node recorders for one deployment,
mirrors :class:`~repro.sim.trace.Tracer` records into them (so existing
emission sites — ``engine.state``, ``gcs.install``, ``gcs.suspect`` —
need no new plumbing), and triggers dump-on-anomaly through
an injected sink.  Writing files is blocking I/O and therefore lives in
the tools layer (:func:`repro.tools.tracecli.dump_flight`); protocol
code only ever hands dicts to the sink callback.
"""

from __future__ import annotations

from collections import deque
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.trace import TraceRecord, Tracer

#: Tracer categories that indicate an anomaly worth dumping on.
ANOMALY_CATEGORIES = frozenset({"replica.crash",
                                "runtime.callback_error"})

#: One recorded event: (time, kind, trace id, detail).  Detail is None,
#: a tuple, or — on the allocation-free fast paths — a bare scalar
#: (e.g. the sender id of a ``recv``, the position of a ``green``).
FlightEvent = Tuple[float, str, int, Any]

#: Sink signature: (reason, per-node event dicts) -> None.
DumpSink = Callable[[str, Dict[Any, List[Dict[str, Any]]]], None]


class FlightRecorder:
    """Bounded ring of structured protocol events for one node.

    Timestamps are supplied by the caller (``runtime.now``); the
    recorder holds no clock.

    The ring is a ``deque(maxlen=capacity)``, so an append evicts the
    oldest event in one C call — no cursor arithmetic on the hot path.
    ``ring`` is public and its identity is stable across :meth:`clear`:
    the engine caches the bound ``ring.append`` at construction and
    appends ``(t, kind, trace, detail)`` tuples directly (same
    reasoning as the inlined ``Histogram.observe`` in
    :mod:`repro.obs.spans`), so the event shape here and those sites
    must move together.
    """

    __slots__ = ("key", "capacity", "ring")

    def __init__(self, key: Any, capacity: int = 8192) -> None:
        self.key = key
        self.capacity = capacity
        self.ring: Deque[FlightEvent] = deque(maxlen=capacity)

    def record(self, t: float, kind: str, trace: int = 0,
               detail: Any = None) -> None:
        """Append one event; evicts the oldest when full."""
        self.ring.append((t, kind, trace, detail))

    def events(self) -> List[FlightEvent]:
        """Kept events, oldest first."""
        return list(self.ring)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Kept events as JSON-able dicts (the dump artifact rows)."""
        out: List[Dict[str, Any]] = []
        for t, kind, trace, detail in self.events():
            row: Dict[str, Any] = {"node": self.key, "t": t, "kind": kind}
            if trace:
                row["trace"] = trace
            if detail is not None:
                row["detail"] = (list(detail) if isinstance(detail, tuple)
                                 else [detail])
            out.append(row)
        return out

    def clear(self) -> None:
        self.ring.clear()


class FlightHub:
    """The per-deployment set of flight recorders.

    Also bridges the existing :class:`~repro.sim.trace.Tracer` stream:
    every tracer record is mirrored into the emitting node's recorder,
    so categories that components already emit (state transitions, view
    installs, suspicions, crash/recover) appear in the
    flight ring without any new instrumentation sites.
    """

    def __init__(self, capacity: int = 8192) -> None:
        self.capacity = capacity
        self.recorders: Dict[Any, FlightRecorder] = {}
        self.anomalies = 0
        #: Injected by the tools layer (file I/O stays out of protocol
        #: code); called with (reason, dump dicts) on each anomaly.
        self.sink: Optional[DumpSink] = None

    def recorder(self, key: Any) -> FlightRecorder:
        rec = self.recorders.get(key)
        if rec is None:
            rec = self.recorders[key] = FlightRecorder(key, self.capacity)
        return rec

    def attach(self, tracer: "Tracer") -> None:
        """Mirror ``tracer`` records into the per-node rings.
        Idempotent per tracer: clusters sharing one tracer may each
        attach it, and every event still lands in the ring once
        (:meth:`~repro.sim.trace.Tracer.subscribe` skips a callback it
        already holds)."""
        tracer.subscribe(self._on_trace)

    def _on_trace(self, record: "TraceRecord") -> None:
        detail = tuple(f"{k}={v}" for k, v in record.detail.items()) \
            if record.detail else None
        self.recorder(record.node).record(
            record.time, record.category, 0, detail)
        if record.category in ANOMALY_CATEGORIES:
            self.note_anomaly(record.category)

    def note_anomaly(self, reason: str) -> None:
        """Record an anomaly; dump through the sink when one is set."""
        self.anomalies += 1
        if self.sink is not None:
            self.sink(reason, self.dump())

    def dump(self) -> Dict[Any, List[Dict[str, Any]]]:
        """Every recorder's kept events as JSON-able dicts."""
        return {key: rec.to_dicts()
                for key, rec in sorted(self.recorders.items(),
                                       key=lambda kv: str(kv[0]))}


def action_trace_id(server_id: int, index: int) -> int:
    """Deterministic trace id for an action submitted at a replica.

    ``(server_id << 32) | index`` — unique across the group because
    server ids are, identical between a simulated and a live run of the
    same scenario (both count actions the same way), and always nonzero
    (server ids start at 1).  Fits a signed 64-bit wire field.
    """
    return (server_id << 32) | (index & 0xFFFFFFFF)

