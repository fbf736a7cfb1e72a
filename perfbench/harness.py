"""What every workload shares: run parameters, the operation log, the
public counters read around a window, and the result of one window."""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple)

from stats import percentile
from tracing import SpanRecorder

#: Excluded from every window, so caches fill and the first primary's
#: lazy set-up finishes before timing (live: wall seconds).
WARMUP_S = 1.0
#: An operation still outstanding this long after injection stopped
#: counts as failed.
DRAIN_LIMIT_S = 5.0
#: Cluster set-ups timed per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5


@dataclass
class Params:
    workload: str
    seed: int
    seconds: float
    #: None for an end-to-end window; the recorder for a traced one.
    recorder: Optional[SpanRecorder] = None

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def client_callback(self, fn: Callable) -> Callable:
        """Generator callbacks run inside the program's dispatch; under
        tracing they get their own span so the layer that called them
        is not billed for the generator."""
        if self.recorder is None:
            return fn
        return self.recorder.wrap("client", fn.__name__, fn)


class OpLog:
    """Completed operations of one kind, as (began, ended) pairs.

    ``began`` is the submit time of a closed-loop operation and the due
    time of an open-loop one.  ``acknowledged`` collects the ids of
    completed updates when the workload needs them afterwards (the
    durability check); None keeps a long live window from holding them."""

    def __init__(self, keep_ids: bool = False) -> None:
        self.done: List[Tuple[float, float]] = []
        self.acknowledged: Optional[Set[Any]] = set() if keep_ids else None
        self.duplicates = 0
        self.invalid = 0

    def completed(self, began: float, ended: float, action_id: Any) -> None:
        self.done.append((began, ended))
        if self.acknowledged is not None:
            self.acknowledged.add(action_id)

    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        return [op for op in self.done if start <= op[1] < end]

    def began_in(self, start: float, end: float) -> int:
        return sum(1 for op in self.done if start <= op[0] < end)


def latencies_ms(ops: Iterable[Tuple[float, float]]) -> List[float]:
    return sorted((ended - began) * 1e3 for began, ended in ops)


@dataclass
class Window:
    """Everything one measured window produced."""

    wall_s: float
    cpu_s: float
    actions: int                      # completed updates
    attempted: int
    failed: int
    write_ms: List[float]             # sorted update latencies
    counters: Dict[str, float]        # public counter deltas
    first_half_actions: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    gc_gen2: int = 0

    @property
    def actions_per_s(self) -> float:
        return self.actions / self.wall_s if self.wall_s else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gc_gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


class Meter:
    """Wall clock, process CPU and gen-2 collections around a window,
    with span recording switched on for exactly that long when the
    window is a traced one."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self._recorder = recorder
        if recorder is not None:
            recorder.reset()
            recorder.enabled = True
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        self.gen2 = gc_gen2_collections()

    def stop(self) -> Tuple[float, float, int]:
        measured = (time.perf_counter() - self.wall,
                    time.process_time() - self.cpu,
                    gc_gen2_collections() - self.gen2)
        if self._recorder is not None:
            self._recorder.enabled = False
        return measured


# ----------------------------------------------------------------------
# load generators, for either runtime: ``now`` is its clock and
# ``later(delay, fn)`` its timer
# ----------------------------------------------------------------------
def key_counter(cid: int) -> Callable[[], Tuple]:
    """The paper's 200-byte action stream: ("SET", "c<id>", seq)."""
    seq = [0]

    def next_update() -> Tuple:
        seq[0] += 1
        return ("SET", f"c{cid}", seq[0])
    return next_update


def submit_at(replica: Any) -> Callable:
    return lambda update, done: replica.submit(update, on_complete=done)


class ClosedLoopWriter:
    """The paper's client: the next update goes in from the completion
    callback of the previous one."""

    def __init__(self, submit: Callable, next_update: Callable[[], Tuple],
                 log: OpLog, params: Params,
                 now: Callable[[], float]) -> None:
        self._submit = submit
        self._next_update = next_update
        self._log = log
        self._now = now
        self._done = params.client_callback(self._on_done)
        self.running = False
        self.pending: Any = None
        self.began = 0.0

    def start(self) -> None:
        self.running = True
        self.inject()

    def inject(self) -> None:
        self.began = self._now()
        self.pending = self._submit(self._next_update(), self._done)

    def _on_done(self, action: Any, _position: int, _result: Any) -> None:
        if action.action_id != self.pending:
            self._log.duplicates += 1
            return
        self.pending = None
        self._log.completed(self.began, self._now(), action.action_id)
        if self.running:
            self.after_write()

    def after_write(self) -> None:
        self.inject()

    def unfinished(self) -> List[float]:
        """When the updates that never completed began."""
        return [] if self.pending is None else [self.began]

    @property
    def outstanding(self) -> int:
        return len(self.unfinished())


class PacedWriter:
    """Open loop: one update every ``1/rate`` seconds whatever the
    system does, each timed from when it was due."""

    def __init__(self, submit: Callable, next_update: Callable[[], Tuple],
                 rate: float, log: OpLog, params: Params,
                 now: Callable[[], float],
                 later: Callable[[float, Callable], Any]) -> None:
        self._submit = submit
        self._next_update = next_update
        self._interval = 1.0 / rate
        self._log = log
        self._now = now
        self._later = later
        self._done = params.client_callback(self._on_done)
        self._tick = params.client_callback(self._on_tick)
        self.pending: Dict[Any, float] = {}
        self.lag_ms: List[Tuple[float, float]] = []   # (due, lateness)
        self.running = False
        self._origin = 0.0
        self._sent = 0

    def start(self) -> None:
        self.running = True
        self._origin = self._now()
        self._on_tick()

    def _on_tick(self) -> None:
        if not self.running:
            return
        now = self._now()
        due = self._origin + self._sent * self._interval
        while due <= now:
            self.pending[self._submit(self._next_update(),
                                      self._done)] = due
            self.lag_ms.append((due, (now - due) * 1e3))
            self._sent += 1
            due = self._origin + self._sent * self._interval
        self._later(max(0.0, due - self._now()), self._tick)

    def _on_done(self, action: Any, _position: int, _result: Any) -> None:
        due = self.pending.pop(action.action_id, None)
        if due is None:
            self._log.duplicates += 1
            return
        self._log.completed(due, self._now(), action.action_id)

    def unfinished(self) -> List[float]:
        return list(self.pending.values())

    @property
    def outstanding(self) -> int:
        return len(self.pending)


# ----------------------------------------------------------------------
# public counters
# ----------------------------------------------------------------------
ENGINE_STATS = ("exchanges", "installs", "cpc_sent", "state_msgs_sent",
                "retrans_actions", "greens")


def read_counters(replicas: Iterable[Any], transport: Any, runtime: Any,
                  tracer: Any) -> Dict[str, float]:
    """Sum the counters the layers already publish.  Engine counters
    restart from zero when a recovering replica rebuilds its engine;
    :func:`carry_engine_stats` keeps what a crash would drop."""
    out: Dict[str, float] = {name: 0.0 for name in (
        "forced_writes", "syncs", "async_writes", "sync_wait_s",
        "multicasts", "deliveries", "views", "channel_retransmits",
        "applies", "compactions", "durable_records_max",
        "batch_frames", "batch_payloads") + ENGINE_STATS}
    for replica in replicas:
        disk = replica.disk
        out["forced_writes"] += disk.forced_writes
        out["syncs"] += disk.syncs
        out["async_writes"] += disk.async_writes
        out["sync_wait_s"] += disk.total_sync_wait
        daemon = replica.daemon
        out["multicasts"] += daemon.messages_multicast
        out["deliveries"] += daemon.deliveries
        out["views"] += daemon.views_installed
        out["channel_retransmits"] += replica.endpoint.retransmits
        out["applies"] += replica.database.applied_count
        out["compactions"] += replica.wal.rewrites
        out["durable_records_max"] = max(out["durable_records_max"],
                                         replica.wal.durable_size)
        if replica.batcher is not None:
            out["batch_frames"] += replica.batcher.frames_sent
            out["batch_payloads"] += replica.batcher.payloads_sent
        for name in ENGINE_STATS:
            out[name] += replica.engine.stats[name]
    out["datagrams"] = transport.datagrams_sent
    out["bytes"] = transport.bytes_sent
    out["dropped"] = transport.datagrams_dropped
    out["callbacks"] = runtime.events_processed
    out["gcs_retrans"] = tracer.count("gcs.retrans")
    return out


def carry_engine_stats(carried: Dict[str, float], replica: Any) -> None:
    """Call before ``crash``: bank the engine counters the rebuilt
    engine will restart."""
    for name in ENGINE_STATS:
        carried[name] = carried.get(name, 0.0) + replica.engine.stats[name]


def counter_deltas(before: Dict[str, float], after: Dict[str, float],
                   carried: Optional[Dict[str, float]] = None
                   ) -> Dict[str, float]:
    delta = {}
    for name, value in after.items():
        if name == "durable_records_max":
            delta[name] = value
        else:
            delta[name] = value - before.get(name, 0.0) \
                + (carried or {}).get(name, 0.0)
    return delta


def quantile_of(samples: List[float], q: float) -> float:
    return percentile(sorted(samples), q)
