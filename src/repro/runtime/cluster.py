"""LiveCluster: drive the replication stack on a real asyncio loop.

The wall-clock counterpart of :class:`~repro.core.ReplicaCluster`: same
replica stack (disk, WAL, store, database, GCS daemon, engine), but on
an :class:`AsyncioRuntime` with a live transport instead of the
discrete-event simulator — which is the whole point of the Runtime and
Transport seams: *no protocol code changes between the two*.

A ``LiveCluster`` may host all of the deployment's nodes (single
process, :class:`MemoryTransport` or UDP loopback) or a subset
(multi-process deployment: every process hosts its share and the
``AsyncioTransport`` address map names the rest).

Because wall-clock time cannot be stepped, the driving style is
``await``-based::

    cluster = LiveCluster([1, 2, 3])
    cluster.start_all()
    await cluster.wait_all_engine_state(EngineState.REG_PRIM, timeout=10)
    cluster.submit(1, ("SET", "k", 1))
    await cluster.wait_green(1, timeout=5)
    cluster.partition([1, 2], [3])
    ...
    cluster.assert_same_green_order()
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.client import Client
from ..core.engine import EngineConfig
from ..core.replica import Replica
from ..core.state_machine import EngineState
from ..db import ActionId
from ..gcs import GcsSettings
from ..obs import MetricsServer, Observability
from ..sim.trace import Tracer
from ..storage import DiskProfile
from .asyncio_runtime import AsyncioRuntime
from .transport import AsyncioTransport, MemoryTransport


class LiveClusterTimeout(AssertionError):
    """A :meth:`LiveCluster.wait_until` deadline expired."""


def live_disk_profile() -> DiskProfile:
    """Disk timings for live runs: real fsync latency would make every
    wall-clock test crawl; 0.5 ms keeps the durability ordering
    observable without dominating the run.  Buffered writes complete at
    once: a microsecond timer is below the event loop's granularity,
    and no live caller waits on one."""
    return DiskProfile(forced_write_latency=0.0005,
                       async_write_latency=0.0)


def live_gcs_settings(**overrides: Any) -> GcsSettings:
    """GCS timers for live loopback runs.

    Tighter than the LAN defaults where safe (loopback latency is tens
    of microseconds) but with generous failure/phase timeouts so CI
    scheduler jitter does not masquerade as a network fault.  Windows
    with nothing left to collect are not waited out
    (``idle_immediate``): stamps and acks go out at the end of the
    dispatch when their window is idle — an event loop rounds each
    coalescing timer up to a whole millisecond, which an idle group
    would otherwise pay twice per safe delivery — a membership gather
    settles as soon as every expected member has answered, instead of
    idling out ``gather_settle`` at every start-up, partition and
    merge, and a silent member is suspected when its
    ``failure_timeout`` deadline passes, not at the next poll up to
    half a timeout later.
    """
    params: Dict[str, Any] = dict(
        heartbeat_interval=0.030, failure_timeout=0.300,
        gather_settle=0.080, phase_timeout=0.800,
        nack_timeout=0.020, use_topology_hints=False,
        idle_immediate=True)
    params.update(overrides)
    return GcsSettings(**params)


class LiveCluster:
    """A cluster of replicas running on one asyncio event loop."""

    def __init__(self, server_ids: Sequence[int], *,
                 hosted: Optional[Sequence[int]] = None,
                 runtime: Optional[AsyncioRuntime] = None,
                 transport: Optional[Any] = None,
                 gcs_settings: Optional[GcsSettings] = None,
                 engine_config: Optional[EngineConfig] = None,
                 disk_profile: Optional[DiskProfile] = None,
                 trace: bool = True,
                 trace_limit: Optional[int] = 100_000,
                 observability: Optional[Observability] = None):
        self.server_ids = list(server_ids)
        self.hosted = list(hosted) if hosted is not None else list(server_ids)
        self.runtime = runtime if runtime is not None else AsyncioRuntime()
        self.transport = (transport if transport is not None
                          else MemoryTransport(self.runtime))
        # Long live runs must not grow memory without bound: cap the
        # trace ring buffer (the simulator's default stays unbounded).
        self.tracer = Tracer(enabled=trace, max_records=trace_limit)
        # Live clusters observe by default: a wall-clock deployment is
        # exactly where you want /metrics, and the protocol work per
        # second is tiny next to real I/O.
        self.obs = (observability if observability is not None
                    else Observability())
        # With tracing on, mirror tracer records into the flight rings.
        if self.obs.flight_hub is not None:
            self.obs.flight_hub.attach(self.tracer)
        if isinstance(self.transport, AsyncioTransport):
            self.transport.observe(self.obs, self.tracer)
        self.runtime.observe(self.tracer)
        self.obs.registry.counter_callback(
            "repro_runtime_callback_errors_total",
            lambda: self.runtime.callback_errors,
            "Exceptions raised by callbacks on this cluster's event loop.")
        self._metrics_server: Optional[MetricsServer] = None
        self.directory: Set[int] = set(self.server_ids)
        self.gcs_settings = gcs_settings or live_gcs_settings()
        # EngineConfig's apply_cpu models the paper's per-action service
        # time for the simulator; on a real loop it would only cap
        # throughput at 1 / apply_cpu.
        self.engine_config = engine_config or EngineConfig(apply_cpu=0.0)
        self.disk_profile = disk_profile or live_disk_profile()
        self.replicas: Dict[int, Replica] = {}
        self._client_counter: Dict[int, int] = {}
        for node in self.hosted:
            self.replicas[node] = Replica(
                self.runtime, node, self.transport, self.directory,
                self.server_ids, disk_profile=self.disk_profile,
                gcs_settings=self.gcs_settings,
                engine_config=self.engine_config, tracer=self.tracer,
                obs=self.obs)

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start_all(self) -> None:
        for replica in self.replicas.values():
            replica.start()

    def shutdown(self) -> None:
        """Tear the hosted replicas down and release transport resources
        (sockets, reader callbacks).  Volatile state is dropped exactly
        as on a crash; durable state remains readable for post-mortems."""
        for replica in self.replicas.values():
            if replica.running:
                replica.crash()
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()
        self.runtime.stop()

    # ==================================================================
    # observability export
    # ==================================================================
    async def serve_metrics(self, host: str = "127.0.0.1",
                            port: int = 0) -> MetricsServer:
        """Serve this process's registry over HTTP: ``GET /metrics``
        (Prometheus text) and ``GET /status`` (live cluster state).
        ``port=0`` binds an OS-assigned port, published on the returned
        server's ``.port``.  One endpoint per hosting process — in a
        multi-process deployment each process exposes its hosted
        replicas."""
        if self._metrics_server is None:
            self._metrics_server = MetricsServer(
                self.obs.registry, status_fn=self.status_doc,
                host=host, port=port)
            await self._metrics_server.start()
        return self._metrics_server

    def status_doc(self) -> Dict[str, Any]:
        """A JSON-able live view of the hosted replicas (the ``/status``
        endpoint body)."""
        doc: Dict[str, Any] = {"hosted": sorted(self.replicas),
                               "servers": sorted(self.server_ids),
                               "replicas": {}}
        for node, replica in sorted(self.replicas.items()):
            tracker = self.obs.tracker(node)
            entry: Dict[str, Any] = {
                "running": replica.running,
                "engine_state": str(replica.engine.state),
                "daemon_state": replica.daemon.state,
                "green_applied": replica.database.applied_count,
                "green_count": replica.engine.queue.green_count,
                "forced_writes": replica.disk.forced_writes,
            }
            if tracker is not None:
                p50, p95, p99 = tracker.latency_percentiles(
                    "submit_to_green")
                entry["submit_to_green"] = {"p50": p50, "p95": p95,
                                            "p99": p99}
                entry["membership_changes"] = \
                    len(tracker.membership_completed)
            doc["replicas"][str(node)] = entry
        return doc

    # ==================================================================
    # faults
    # ==================================================================
    def partition(self, *groups: Sequence[int]) -> None:
        """Install a software partition on the transport."""
        self.transport.partition([list(g) for g in groups])

    def heal(self) -> None:
        self.transport.heal()

    # ==================================================================
    # clients
    # ==================================================================
    def client(self, node: int, name: Optional[str] = None) -> Client:
        """Attach a client to a hosted replica (deterministic default
        names, mirroring :class:`~repro.core.ReplicaCluster`)."""
        if name is None:
            self._client_counter[node] = \
                self._client_counter.get(node, 0) + 1
            name = f"client-{node}.{self._client_counter[node]}"
        return Client(self.replicas[node], name=name)

    def submit(self, node: int, update: Tuple,
               on_complete: Optional[Callable] = None) -> ActionId:
        return self.replicas[node].submit(update, on_complete=on_complete)

    # ==================================================================
    # waiting (wall-clock time cannot be stepped, only awaited)
    # ==================================================================
    async def run_for(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    async def wait_until(self, predicate: Callable[[], bool],
                         timeout: float, what: str = "condition",
                         poll: float = 0.01) -> None:
        """Await ``predicate()`` turning true, polling every ``poll``
        seconds; raises :class:`LiveClusterTimeout` after ``timeout``."""
        deadline = self.runtime.now + timeout
        while not predicate():
            if self.runtime.now >= deadline:
                raise LiveClusterTimeout(
                    f"timed out after {timeout}s waiting for {what}; "
                    f"states={self.states()} greens={self.green_counts()}")
            await asyncio.sleep(poll)

    async def wait_all_engine_state(self, state: EngineState,
                                    timeout: float,
                                    nodes: Optional[Sequence[int]] = None
                                    ) -> None:
        targets = list(nodes) if nodes is not None else list(self.replicas)
        await self.wait_until(
            lambda: all(self.replicas[n].engine.state == state
                        for n in targets),
            timeout, what=f"nodes {targets} reaching {state}")

    async def wait_green(self, count: int, timeout: float,
                         nodes: Optional[Sequence[int]] = None) -> None:
        """Await every target node having *applied* ``count`` green
        actions to its database."""
        targets = list(nodes) if nodes is not None else list(self.replicas)
        await self.wait_until(
            lambda: all(self.replicas[n].database.applied_count >= count
                        for n in targets),
            timeout, what=f"nodes {targets} applying {count} green actions")

    # ==================================================================
    # introspection & consistency
    # ==================================================================
    def states(self) -> Dict[int, str]:
        return {n: str(r.engine.state) for n, r in self.replicas.items()}

    def green_counts(self) -> Dict[int, int]:
        """Applied green actions per node (see :meth:`wait_green`)."""
        return {n: r.database.applied_count
                for n, r in self.replicas.items()}

    def green_order(self, node: int) -> List[ActionId]:
        """All green action ids applied at ``node``, in order (the
        database's applied log: checkpoint truncation of the action
        queue does not window it)."""
        return list(self.replicas[node].database.applied_log)

    def assert_same_green_order(self) -> List[ActionId]:
        """All hosted replicas hold the identical green action order
        (Theorem 1's observable); returns that order."""
        nodes = sorted(self.replicas)
        reference = self.replicas[nodes[0]].database.applied_log
        for node in nodes[1:]:
            order = self.replicas[node].database.applied_log
            if order != reference:
                raise AssertionError(
                    f"green order diverges between {nodes[0]} and {node}: "
                    f"{list(reference)} vs {list(order)}")
        return list(reference)

    def assert_converged(self) -> None:
        """Green orders and database digests identical at every hosted
        replica."""
        self.assert_same_green_order()
        digests = {n: r.database.digest()
                   for n, r in self.replicas.items()}
        if len(set(digests.values())) != 1:
            raise AssertionError(f"database digests differ: {digests}")


def udp_cluster(server_ids: Sequence[int], *,
                hosted: Optional[Sequence[int]] = None,
                addresses: Optional[Dict[int, Tuple[str, int]]] = None,
                sockets: Optional[Dict[int, Any]] = None,
                **kwargs: Any) -> LiveCluster:
    """Build a :class:`LiveCluster` over real UDP sockets.

    With no ``addresses``, every node binds an OS-assigned loopback
    port (single-process use).  Multi-process deployments pass a fixed
    ``addresses`` map — and optionally pre-bound ``sockets`` for the
    hosted nodes, letting the parent process bind all ports race-free
    before forking.
    """
    from .transport import loopback_addresses
    runtime = kwargs.pop("runtime", None) or AsyncioRuntime()
    addr_map = dict(addresses) if addresses else loopback_addresses(server_ids)
    transport = AsyncioTransport(runtime, addr_map)
    for node in (hosted if hosted is not None else server_ids):
        transport.open(node, (sockets or {}).get(node))
    return LiveCluster(server_ids, hosted=hosted, runtime=runtime,
                       transport=transport, **kwargs)
