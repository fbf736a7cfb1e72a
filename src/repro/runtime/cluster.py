"""LiveCluster: drive the replication stack on a real asyncio loop.

The wall-clock counterpart of :class:`~repro.core.ReplicaCluster`, on
the same composition root (:class:`~repro.core.cluster.Cluster`): same
replica stack (disk, WAL, store, database, GCS daemon, engine), same
clients, partitions and consistency checks, but on an
:class:`AsyncioRuntime` with a live transport instead of the
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
    cluster.assert_converged()
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..core.cluster import Cluster
from ..core.engine import EngineConfig
from ..core.state_machine import EngineState
from ..gcs import GcsSettings
from ..net import Topology
from ..obs import MetricsServer, Observability
from ..storage import DiskProfile
from .asyncio_runtime import AsyncioRuntime
from .transport import AsyncioTransport, MemoryTransport


class LiveClusterTimeout(AssertionError):
    """A :meth:`LiveCluster.wait_until` deadline expired."""


def live_disk_profile(**overrides: Any) -> DiskProfile:
    """Disk timings for live runs: real fsync latency would make every
    wall-clock test crawl; 0.5 ms keeps the durability ordering
    observable without dominating the run.  Buffered writes complete at
    once: a microsecond timer is below the event loop's granularity,
    and no live caller waits on one."""
    return DiskProfile(**{"forced_write_latency": 0.0005,
                          "async_write_latency": 0.0, **overrides})


def live_engine_config(**overrides: Any) -> EngineConfig:
    """Engine tunables for live runs.  ``apply_cpu`` models the paper's
    per-action service time for the simulator; on a real loop it would
    only cap throughput at 1 / apply_cpu."""
    return EngineConfig(**{"apply_cpu": 0.0, **overrides})


def live_gcs_settings(**overrides: Any) -> GcsSettings:
    """GCS timers for live loopback runs.

    Tighter than the LAN defaults where safe (loopback latency is tens
    of microseconds) but with generous failure/phase timeouts so CI
    scheduler jitter does not masquerade as a network fault.  No
    coalescing window is waited out (``idle_immediate``): a due stamp
    batch or ack goes out at the end of the loop turn that made it due
    — an event loop rounds each window timer up to a whole
    millisecond, which every safe delivery would otherwise pay twice,
    idle or busy — a membership gather
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


class LiveCluster(Cluster):
    """A cluster of replicas running on one asyncio event loop.

    Building, clients, partitions, introspection and the consistency
    checks are :class:`~repro.core.cluster.Cluster`'s; this class adds
    the live defaults, the metrics endpoint, teardown, and awaiting
    (wall-clock time cannot be stepped).
    """

    def __init__(self, server_ids: Sequence[int], *,
                 hosted: Optional[Sequence[int]] = None,
                 runtime: Optional[AsyncioRuntime] = None,
                 transport: Optional[Any] = None,
                 gcs_settings: Optional[GcsSettings] = None,
                 engine_config: Optional[EngineConfig] = None,
                 disk_profile: Optional[DiskProfile] = None,
                 observability: Optional[Observability] = None) -> None:
        runtime = runtime if runtime is not None else AsyncioRuntime()
        transport = (transport if transport is not None
                     else MemoryTransport(runtime, Topology(server_ids)))
        # Live clusters observe by default: a wall-clock deployment is
        # exactly where you want /metrics, and the protocol work per
        # second is tiny next to real I/O.
        obs = (observability if observability is not None
               else Observability())
        if isinstance(transport, AsyncioTransport):
            transport.observe(obs)
        runtime.observe(obs)
        if obs.enabled:
            obs.registry.counter_callback(
                "repro_runtime_callback_errors_total",
                lambda: runtime.callback_errors,
                "Exceptions raised by callbacks on this cluster's event "
                "loop.")
        self._metrics_server: Optional[MetricsServer] = None
        super().__init__(
            runtime, transport, server_ids,
            hosted if hosted is not None else server_ids,
            gcs_settings or live_gcs_settings(),
            engine_config or live_engine_config(),
            disk_profile or live_disk_profile(), obs)

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
                entry["membership_changes"] = tracker.membership_changes
            doc["replicas"][str(node)] = entry
        return doc

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
    transport = AsyncioTransport(runtime, addr_map, Topology(server_ids))
    for node in (hosted if hosted is not None else server_ids):
        transport.open(node, (sockets or {}).get(node))
    return LiveCluster(server_ids, hosted=hosted, runtime=runtime,
                       transport=transport, **kwargs)
