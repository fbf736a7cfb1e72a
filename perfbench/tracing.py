"""Span tracing from outside the program.

``install`` patches the public entry points of each layer of ``repro``
at class or module level, so every replica built afterwards runs
through them.  Callbacks and handlers are wrapped where they cross a
seam (``Runtime.post``, ``Transport.attach``, ``Timer``, the replica's
listener lists), which is what attributes timer-driven work to the
layer that owns the callback instead of to the event loop.

Spans nest strictly (one thread, synchronous calls), so a span's self
time is its duration minus the durations of its direct children, and
the recorder keeps that sum per ``(layer, name)`` as spans close.  The
raw spans are kept too, up to ``keep`` of them, for the trace file.

No file under ``src/`` is edited; spans inside the program are a later
change (choosing-metrics guide, section 4).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: module prefix -> layer, first match wins.  ``repro.sim.process``
#: holds the runtime-agnostic Timer, so it counts as runtime; the
#: simulated network only ever runs under the simulator.
LAYER_PREFIXES = (
    ("repro.runtime.transport", "transport"),
    ("repro.runtime", "runtime"),
    ("repro.sim.process", "runtime"),
    ("repro.sim", "sim"),
    ("repro.net.codec", "codec"),
    ("repro.net.batching", "batching"),
    ("repro.net", "sim"),
    ("repro.gcs", "gcs"),
    ("repro.core", "core"),
    ("repro.semantics", "semantics"),
    ("repro.storage", "storage"),
    ("repro.db", "db"),
    ("repro.obs", "obs"),
)

#: Everything else is the load generator: ``repro.bench`` clients, the
#: ``repro.baselines`` adapter and this package.
GENERATOR_LAYER = "client"

LAYERS = ("runtime", "transport", "codec", "batching", "gcs", "core",
          "semantics", "storage", "db", "obs", "sim", GENERATOR_LAYER)


def layer_of_module(module: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return GENERATOR_LAYER


class SpanRecorder:
    """In-memory span store with running self-time totals."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 keep: int = 100_000) -> None:
        self.clock = clock
        self.keep = keep
        self.enabled = False
        #: (id, layer, name, start_ns, end_ns, parent_id, action_id)
        self.spans: List[Tuple] = []
        self.unkept = 0
        #: (layer, name) -> [count, total_ns, self_ns, longest_ns]
        self.totals: Dict[Tuple[str, str], List[int]] = {}
        #: summed duration of spans with no parent: time inside traced
        #: code, as opposed to inside the event loop around it.
        self.top_level_ns = 0
        #: named sample lists and counters filled by the special hooks
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[list] = []
        self._next_id = 0
        self._described: Dict[Any, Tuple[str, str]] = {}

    # -- spans ----------------------------------------------------------
    def enter(self, layer: str, name: str, action_id: Any = None) -> list:
        # frame: [id, layer, name, start_ns, child_ns, action_id]
        frame = [self._next_id, layer, name, 0, 0, action_id]
        self._next_id += 1
        self._stack.append(frame)
        frame[3] = self.clock()
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[3]
        key = (frame[1], frame[2])
        total = self.totals.get(key)
        if total is None:
            total = self.totals[key] = [0, 0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[4]
        if duration > total[3]:
            total[3] = duration
        if stack:
            parent = stack[-1]
            parent[4] += duration
            parent_id = parent[0]
        else:
            self.top_level_ns += duration
            parent_id = None
        if len(self.spans) < self.keep:
            self.spans.append((frame[0], frame[1], frame[2], frame[3], end,
                               parent_id, frame[5]))
        else:
            self.unkept += 1

    def wrap(self, layer: str, name: str, fn: Callable,
             action_of: Optional[Callable[[tuple], Any]] = None,
             action_from_result: bool = False) -> Callable:
        """``fn`` inside a span; ``action_of(args)`` or the result names
        the action the call carries."""
        rec = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            frame = rec.enter(layer, name,
                              action_of(args) if action_of else None)
            try:
                result = fn(*args, **kwargs)
                if action_from_result:
                    frame[5] = result
                return result
            finally:
                rec.exit(frame)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def describe(self, callback: Callable) -> Tuple[str, str]:
        """(layer, name) of a callback, from the module and qualified
        name of the function behind it."""
        fn = callback
        while hasattr(fn, "func"):          # functools.partial
            fn = fn.func
        fn = getattr(fn, "__func__", fn)    # bound method
        key = getattr(fn, "__code__", fn)
        found = self._described.get(key)
        if found is None:
            found = self._described[key] = (
                layer_of_module(getattr(fn, "__module__", "") or ""),
                getattr(fn, "__qualname__", type(fn).__name__))
        return found

    def wrap_callback(self, callback: Callable) -> Callable:
        layer, name = self.describe(callback)
        return self.wrap(layer, name, callback)

    def run_callback(self, callback: Callable, args: tuple) -> None:
        """Dispatch target substituted for callbacks handed to a runtime:
        costs no closure per scheduled event."""
        if not self.enabled:
            callback(*args)
            return
        layer, name = self.describe(callback)
        frame = self.enter(layer, name)
        try:
            callback(*args)
        finally:
            self.exit(frame)

    # -- side channels ---------------------------------------------------
    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    # -- reading ---------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded; open frames keep nesting right."""
        self.spans = []
        self.unkept = 0
        self.totals = {}
        self.top_level_ns = 0
        self.samples = {}
        self.counts = {}

    def self_ns(self, layer: str, *names: str) -> int:
        """Summed self time of a layer, or of the named spans in it."""
        return sum(total[2] for (lay, name), total in self.totals.items()
                   if lay == layer and (not names or name in names))

    def total_ns(self, layer: str, *names: str) -> int:
        return sum(total[1] for (lay, name), total in self.totals.items()
                   if lay == layer and (not names or name in names))

    def calls(self, layer: str, *names: str) -> int:
        return sum(total[0] for (lay, name), total in self.totals.items()
                   if lay == layer and (not names or name in names))

    def longest_ns(self, layer: str, name: str) -> int:
        total = self.totals.get((layer, name))
        return total[3] if total else 0

    def document(self) -> Dict[str, Any]:
        """The trace file body."""
        return {
            "span_fields": ["id", "layer", "name", "start_ns", "end_ns",
                            "parent_id", "action_id"],
            "spans": [[s[0], s[1], s[2], s[3], s[4], s[5],
                       None if s[6] is None else str(s[6])]
                      for s in self.spans],
            "spans_not_kept": self.unkept,
            "top_level_ns": self.top_level_ns,
            "totals": [{"layer": layer, "name": name, "count": t[0],
                        "total_ns": t[1], "self_ns": t[2],
                        "longest_ns": t[3]}
                       for (layer, name), t in sorted(self.totals.items())],
            "counts": dict(sorted(self.counts.items())),
        }


# ----------------------------------------------------------------------
# action-id extractors
# ----------------------------------------------------------------------
def _arg1(args: tuple) -> Any:
    return args[1] if len(args) > 1 else None


def _arg1_action_id(args: tuple) -> Any:
    return getattr(_arg1(args), "action_id", None)


def _arg1_message_action_id(args: tuple) -> Any:
    return getattr(getattr(_arg1(args), "action", None), "action_id", None)


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
class Patches:
    """The installed patches, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        #: targets that no longer exist in the program (a later change
        #: renamed or removed them): reported, never silently dropped.
        self.missing: List[str] = []

    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        try:
            setattr(owner, attr, make(original))
        except (AttributeError, TypeError):
            # A compiled (mypyc) class refuses attribute assignment.
            self.missing.append(label)
            return
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _scheduler(rec: SpanRecorder, name: str, lead: int = 1) -> Callable:
    """``post(self, when, callback, *args)`` and its siblings (``lead``
    arguments come before the callback: none for ``call_soon``): the
    call is a runtime span, the callback runs later under its own
    layer."""
    def make(original: Callable) -> Callable:
        def traced(self: Any, *args: Any) -> Any:
            if not rec.enabled:
                return original(self, *args)
            frame = rec.enter("runtime", name)
            try:
                return original(self, *args[:lead], rec.run_callback,
                                args[lead], args[lead + 1:])
            finally:
                rec.exit(frame)
        return traced
    return make


def _callback_taker(rec: SpanRecorder, layer: str, name: str,
                    position: int) -> Callable:
    """A method that stores the callable at ``args[position]`` for
    later (``attach``, ``add_green_listener``, ``Timer.__init__``)."""
    def make(original: Callable) -> Callable:
        span = rec.wrap(layer, name, original)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if len(args) > position and callable(args[position]):
                args = (args[:position]
                        + (rec.wrap_callback(args[position]),)
                        + args[position + 1:])
            return span(*args, **kwargs)
        return traced
    return make


def install(rec: SpanRecorder) -> Patches:
    """Patch every layer's entry points to record into ``rec``.  Must
    run before the cluster under test is built: handlers, listeners and
    timers are wrapped as they are registered."""
    import repro.core  # noqa: F401  (before repro.runtime: see README)
    from repro.baselines.base import EngineSystem
    from repro.core.engine import ReplicationEngine
    from repro.core.replica import Replica
    from repro.db.database import Database
    from repro.gcs.channel import ReliableChannelEndpoint
    from repro.gcs.daemon import GcsDaemon
    from repro.gcs.group import GroupChannel
    from repro.net import codec
    from repro.net.batching import WireBatcher
    from repro.net.network import Network
    from repro.obs.flight import FlightRecorder
    from repro.obs.spans import SpanTracker
    from repro.runtime.asyncio_runtime import AsyncioRuntime
    from repro.runtime.transport import AsyncioTransport
    from repro.semantics.service import ReplicatedService
    from repro.sim.kernel import Simulator
    from repro.sim.process import Timer
    from repro.storage.disk import SimulatedDisk
    from repro.storage.store import StableStore
    from repro.storage.wal import WriteAheadLog

    patches = Patches()

    def span(owner: Any, attr: str, layer: str, **how: Any) -> None:
        patches.replace(owner, attr,
                        lambda fn: rec.wrap(layer, attr, fn, **how))

    # runtime: the scheduling calls, with their callbacks re-homed.
    # Simulator.call_soon goes through Simulator.schedule already.
    for cls, names in ((AsyncioRuntime, ("post", "post_at", "schedule",
                                         "schedule_at")),
                       (Simulator, ("post", "post_at", "schedule",
                                    "schedule_at"))):
        for name in names:
            patches.replace(cls, name, _scheduler(rec, name))
    patches.replace(AsyncioRuntime, "call_soon",
                    _scheduler(rec, "call_soon", lead=0))
    patches.replace(Timer, "__init__",
                    _callback_taker(rec, "runtime", "Timer", 2))
    span(Simulator, "run", "sim")

    # transport: live UDP and the simulated network
    for cls, layer in ((AsyncioTransport, "transport"), (Network, "sim")):
        span(cls, "send", layer)
        span(cls, "multicast", layer)
        patches.replace(cls, "attach",
                        _callback_taker(rec, layer, "attach", 2))
    # The socket reader is private, but nothing public sees the receive
    # syscalls; without it they would read as event-loop time.
    span(AsyncioTransport, "_on_readable", "transport")

    # codec: the module attributes runtime.transport looks up per call
    def counted_encode(fn: Callable) -> Callable:
        inner = rec.wrap("codec", "encode_payload", fn)

        def traced(obj: Any) -> bytes:
            blob = inner(obj)
            if rec.enabled:
                rec.count("codec.payloads")
                if blob[0] == codec.TAG_PICKLE:
                    rec.count("codec.pickled_payloads")
            return blob
        return traced

    def sized_frame(fn: Callable) -> Callable:
        inner = rec.wrap("codec", "encode_frame", fn)

        def traced(src: int, payload: Any) -> bytes:
            blob = inner(src, payload)
            if rec.enabled:
                rec.count("codec.frame_bytes", len(blob))
            return blob
        return traced
    patches.replace(codec, "encode_payload", counted_encode)
    patches.replace(codec, "encode_frame", sized_frame)
    span(codec, "decode_frame", "codec")

    for name in ("send", "multicast", "flush_all"):
        span(WireBatcher, name, "batching")

    # gcs: sends, the reliable channel, and two waits measured between
    # a downcall and the matching upcall
    def multicast_started(fn: Callable) -> Callable:
        inner = rec.wrap("gcs", "multicast", fn)

        def traced(self: Any, payload: Any, *args: Any,
                   **kwargs: Any) -> Any:
            if rec.enabled:
                _safe_wait[id(payload)] = self.sim.now
            return inner(self, payload, *args, **kwargs)
        return traced
    # Both waits are read off the daemon's own runtime clock, so they are
    # wall time on the live workloads and virtual time on the simulator.
    _safe_wait: Dict[int, float] = {}
    _transitional: Dict[int, float] = {}
    patches.replace(GcsDaemon, "multicast", multicast_started)
    span(ReliableChannelEndpoint, "send", "gcs")
    span(ReliableChannelEndpoint, "on_datagram", "gcs")

    # core: the GCS listener upcalls land in the engine, so they are
    # core spans; GroupChannel itself only forwards.
    def delivered(fn: Callable) -> Callable:
        inner = rec.wrap("core", "on_message", fn,
                         action_of=_arg1_message_action_id)

        def traced(self: Any, payload: Any, origin: int, *args: Any,
                   **kwargs: Any) -> Any:
            if rec.enabled and origin == self.daemon.node:
                began = _safe_wait.pop(id(payload), None)
                if began is not None:
                    rec.sample("gcs.safe_delivery_wait_ms",
                               (self.daemon.sim.now - began) * 1e3)
            return inner(self, payload, origin, *args, **kwargs)
        return traced

    def transitional(fn: Callable) -> Callable:
        inner = rec.wrap("core", "on_transitional_conf", fn)

        def traced(self: Any, conf: Any) -> Any:
            _transitional.setdefault(id(self), self.daemon.sim.now)
            return inner(self, conf)
        return traced

    def regular(fn: Callable) -> Callable:
        inner = rec.wrap("core", "on_regular_conf", fn)

        def traced(self: Any, conf: Any) -> Any:
            began = _transitional.pop(id(self), None)
            if began is not None and rec.enabled:
                rec.sample("gcs.membership_round_ms",
                           (self.daemon.sim.now - began) * 1e3)
            return inner(self, conf)
        return traced
    patches.replace(GroupChannel, "on_message", delivered)
    patches.replace(GroupChannel, "on_transitional_conf", transitional)
    patches.replace(GroupChannel, "on_regular_conf", regular)
    span(ReplicationEngine, "submit", "core", action_from_result=True)
    span(ReplicationEngine, "submit_action", "core",
         action_of=_arg1_action_id)
    span(ReplicationEngine, "checkpoint", "core")
    span(ReplicationEngine, "compact_log", "core")
    span(Replica, "submit", "core", action_from_result=True)
    span(Replica, "crash", "core")
    span(Replica, "recover", "core")
    for name in ("add_green_listener", "add_red_listener",
                 "add_state_listener"):
        patches.replace(Replica, name, _callback_taker(rec, "core", name, 1))

    for name in ("update", "query", "query_after_my_writes"):
        span(ReplicatedService, name, "semantics")

    for cls, names in (
            (WriteAheadLog, ("append", "sync", "rewrite", "recover",
                             "recover_kind", "last_of_kind")),
            (StableStore, ("put", "sync", "recover")),
            (SimulatedDisk, ("write", "flush", "rewrite", "recover"))):
        for name in names:
            patches.replace(cls, name, lambda fn, c=cls, n=name: rec.wrap(
                "storage", f"{c.__name__}.{n}", fn))

    span(Database, "apply", "db", action_of=_arg1_action_id)
    for name in ("query", "snapshot", "restore", "digest"):
        span(Database, name, "db")

    # obs: a lower bound, the hot paths inline their histogram updates
    for name in ("on_submit", "on_red", "on_green"):
        span(SpanTracker, name, "obs", action_of=_arg1)
    for name in ("on_membership_start", "on_install", "open_vulnerable",
                 "close_vulnerable", "on_remote_green"):
        span(SpanTracker, name, "obs")
    span(FlightRecorder, "record", "obs")

    # The simulator sweep's generator: completions are handed over
    # inside EngineSystem.submit.
    patches.replace(EngineSystem, "submit",
                    _callback_taker(rec, GENERATOR_LAYER, "submit", 3))
    return patches
