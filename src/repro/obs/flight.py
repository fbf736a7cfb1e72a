"""Per-node flight log: the one bounded stream of protocol events.

Post-mortem debugging of a replicated protocol needs the *last N
things each node did* — state transitions, view installs, suspicions,
retransmissions, crashes, and with per-action tracing on the message
send/receive pairs — cheap enough to leave on in production and
structured enough to merge across nodes into one causal timeline
(``repro-trace``, :mod:`repro.tools.tracecli`).

Two kinds of events share each node's ring:

* **Rare events**, recorded by the components themselves through
  :meth:`FlightRecorder.record` on every cluster: ``engine.state``,
  ``engine.install``/``compact``/``exit``/``unexpected_action``,
  ``gcs.gather``/``propose``/``install``/``suspect``/``retrans``,
  ``replica.crash``/``recover``/``joined``, ``runtime.callback_error``
  and ``transport.oversize``/``unencodable``.  Their detail is a dict of named fields;
  :meth:`FlightHub.count` keeps exact per-kind totals however many
  the ring has evicted.
* **Per-action events** (``submit``/``send``/``recv``/``red``/
  ``green``), only with ``Observability(flight=True)``: the engine
  appends them to the ring directly, uncounted, under each action's
  trace id.

Design constraints, in order:

* **Deterministic.**  The recorder never reads a clock, posts no
  runtime events, and consumes no randomness: every ``record`` call
  takes the caller's Runtime timestamp as a parameter.  Recording is
  therefore invisible to the simulator — the fig5a determinism pin
  holds with tracing on.  ``tests/test_import_policy.py`` enforces
  this structurally: this module may not import a time source or
  evaluate ``.now``.
* **Allocation-light.**  One bounded deque of tuples per node; a
  per-action event is a single C-level append (the engine caches the
  bound ``ring.append``).
* **Bounded.**  ``capacity`` caps memory per node; the ring keeps the
  newest events.

A :class:`FlightHub` owns the per-node recorders for one deployment
(``cluster.tracer``), serves counts, selections and subscriptions over
them, and triggers dump-on-anomaly through an injected sink.  Writing
files is blocking I/O and therefore lives in the tools layer
(:func:`repro.tools.tracecli.dump_flight`); protocol code only ever
hands dicts to the sink callback.
"""

from __future__ import annotations

from collections import deque
from heapq import merge
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

#: Event kinds that indicate an anomaly worth dumping on.
ANOMALY_CATEGORIES = frozenset({"replica.crash",
                                "runtime.callback_error"})

#: Events each node's ring keeps.
CAPACITY = 8192

#: One recorded event: (time, kind, trace id, detail).  Detail is None,
#: a dict of named fields (rare events), a tuple, or — on the
#: allocation-free fast paths — a bare scalar (e.g. the sender id of a
#: ``recv``, the position of a ``green``).
FlightEvent = Tuple[float, str, int, Any]

#: One event as a JSON-able dict: ``{"node", "t", "kind"}`` plus
#: ``"trace"`` and ``"detail"`` when set (the dump artifact schema).
Row = Dict[str, Any]

#: Sink signature: (reason, per-node event rows) -> None.
DumpSink = Callable[[str, Dict[Any, List[Row]]], None]


def event_row(key: Any, event: FlightEvent) -> Row:
    """``event`` recorded at node ``key`` as a row."""
    t, kind, trace, detail = event
    row: Row = {"node": key, "t": t, "kind": kind}
    if trace:
        row["trace"] = trace
    if detail is not None:
        row["detail"] = (detail if isinstance(detail, dict)
                         else list(detail) if isinstance(detail, tuple)
                         else [detail])
    return row


class FlightRecorder:
    """Bounded ring of structured protocol events for one node.

    Timestamps are supplied by the caller (``runtime.now``); the
    recorder holds no clock.

    The ring is a ``deque(maxlen=capacity)``, so an append evicts the
    oldest event in one C call — no cursor arithmetic on the hot path.
    ``ring`` is public and its identity is stable across :meth:`clear`:
    the engine caches the bound ``ring.append`` at construction and
    appends per-action ``(t, kind, trace, detail)`` tuples directly
    (same reasoning as the inlined ``Histogram.observe`` in
    :mod:`repro.obs.spans`), so the event shape here and those sites
    must move together.
    """

    __slots__ = ("key", "capacity", "ring", "counts", "hub")

    def __init__(self, key: Any, capacity: int = CAPACITY,
                 hub: Optional["FlightHub"] = None) -> None:
        self.key = key
        self.capacity = capacity
        self.ring: Deque[FlightEvent] = deque(maxlen=capacity)
        #: Events per kind recorded through :meth:`record`, evicted or not.
        self.counts: Dict[str, int] = {}
        self.hub = hub

    def record(self, t: float, kind: str, trace: int = 0,
               detail: Any = None) -> None:
        """Append one event (evicting the oldest when full), count it,
        and hand it to the hub's subscribers and anomaly check."""
        event = (t, kind, trace, detail)
        self.ring.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.hub is not None:
            self.hub.recorded(self.key, event)

    def events(self) -> List[FlightEvent]:
        """Kept events, oldest first."""
        return list(self.ring)

    def to_dicts(self) -> List[Row]:
        """Kept events as rows, oldest first."""
        key = self.key
        return [event_row(key, event) for event in self.ring]

    def clear(self) -> None:
        """Drop the kept events and the counts."""
        self.ring.clear()
        self.counts.clear()


class FlightHub:
    """The per-deployment set of flight recorders: one event log.

    Reads span every node: :meth:`count` (exact per kind),
    :meth:`select` (kept events as rows, in time order) and
    :meth:`subscribe` (each recorded rare event as it happens).
    """

    def __init__(self, capacity: int = CAPACITY) -> None:
        self.capacity = capacity
        self.recorders: Dict[Any, FlightRecorder] = {}
        self.anomalies = 0
        #: Injected by the tools layer (file I/O stays out of protocol
        #: code); called with (reason, dump rows) on each anomaly.
        self.sink: Optional[DumpSink] = None
        self._subscribers: List[Callable[[Row], None]] = []

    def recorder(self, key: Any) -> FlightRecorder:
        rec = self.recorders.get(key)
        if rec is None:
            rec = self.recorders[key] = FlightRecorder(key, self.capacity,
                                                       self)
        return rec

    def recorded(self, key: Any, event: FlightEvent) -> None:
        """Called by a recorder for each event it records."""
        if self._subscribers:
            row = event_row(key, event)
            for subscriber in self._subscribers:
                subscriber(row)
        if event[1] in ANOMALY_CATEGORIES:
            self.note_anomaly(event[1])

    def subscribe(self, callback: Callable[[Row], None]) -> None:
        """Call ``callback(row)`` for every event recorded from now on;
        one it already holds is not added again (bound methods compare
        equal per owner object)."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def count(self, kind: str) -> int:
        """Events of ``kind`` recorded at any node, evicted or not."""
        return sum(rec.counts.get(kind, 0)
                   for rec in self.recorders.values())

    def select(self, kind: Optional[str] = None,
               node: Any = None) -> Iterator[Row]:
        """Kept events as rows, filtered by kind and/or node, in time
        order (ties in node order)."""
        keys = ([node] if node is not None
                else sorted(self.recorders, key=str))
        streams: List[List[Row]] = []
        for key in keys:
            rec = self.recorders.get(key)
            if rec is not None:
                streams.append([event_row(key, event) for event in rec.ring
                                if kind is None or event[1] == kind])
        return merge(*streams, key=lambda row: row["t"])

    def note_anomaly(self, reason: str) -> None:
        """Record an anomaly; dump through the sink when one is set."""
        self.anomalies += 1
        if self.sink is not None:
            self.sink(reason, self.dump())

    def dump(self) -> Dict[Any, List[Row]]:
        """Every recorder's kept events as rows."""
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
