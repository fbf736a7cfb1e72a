"""Cluster harness: build and drive a whole replicated system.

Used by the tests, the examples, and the benchmark harness.  Owns the
simulator, topology, network, and all replicas; provides fault
injection, dynamic join/leave orchestration, and the consistency
assertions that encode the paper's correctness theorems.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..db import ActionId
from ..gcs import GcsSettings
from ..net import Network, NetworkProfile, Topology
from ..obs import Observability
# The submodule, not the package: repro.runtime's __init__ pulls in
# LiveCluster, which imports repro.core, so either may be first.
from ..runtime.sim_runtime import SimRuntime
from ..sim import RandomStreams, Tracer
from ..storage import DiskProfile
from .client import Client
from .engine import EngineConfig
from .reconfig import JoinerProtocol, TransferHeader
from .replica import Replica
from .state_machine import EngineState


class ReplicaCluster:
    """A simulated cluster of database replicas."""

    def __init__(self, n: int = 3,
                 server_ids: Optional[Sequence[int]] = None,
                 seed: int = 0,
                 network_profile: Optional[NetworkProfile] = None,
                 disk_profile: Optional[DiskProfile] = None,
                 gcs_settings: Optional[GcsSettings] = None,
                 engine_config: Optional[EngineConfig] = None,
                 trace: bool = False,
                 observability: Optional[Observability] = None) -> None:
        self.server_ids = (list(server_ids) if server_ids is not None
                           else list(range(1, n + 1)))
        # Disabled by default: simulated clusters keep plain counters
        # but pay nothing for spans/histograms unless asked.
        self.obs = (observability if observability is not None
                    else Observability.disabled())
        # The deterministic Runtime; `sim` is also reachable as
        # `runtime` for symmetry with LiveCluster.
        self.sim = SimRuntime()
        self.streams = RandomStreams(seed)
        self.tracer = Tracer(enabled=trace)
        self.topology = Topology(self.server_ids)
        self.network = Network(self.sim, self.topology, network_profile,
                               rng=self.streams.stream("network"),
                               tracer=self.tracer)
        self.runtime = self.sim
        # With tracing on, mirror tracer records (state transitions,
        # installs, disk syncs, crashes) into the flight rings.
        if self.obs.flight_hub is not None:
            self.obs.flight_hub.attach(self.tracer)
        self.directory: Set[int] = set(self.server_ids)
        self.gcs_settings = gcs_settings or GcsSettings()
        self.disk_profile = disk_profile
        self.engine_config_factory = (
            (lambda: engine_config) if engine_config is not None
            else EngineConfig)
        self.replicas: Dict[int, Replica] = {}
        self._client_counter: Dict[int, int] = {}
        for node in self.server_ids:
            self.replicas[node] = self._build_replica(node,
                                                      self.server_ids)
        if self.gcs_settings.use_topology_hints:
            self.topology.subscribe(self._topology_hint)

    def _build_replica(self, node: int,
                       server_ids: Sequence[int]) -> Replica:
        config = self.engine_config_factory()
        return Replica(self.sim, node, self.network, self.directory,
                       list(server_ids), disk_profile=self.disk_profile,
                       gcs_settings=self.gcs_settings,
                       engine_config=config, tracer=self.tracer,
                       obs=self.obs)

    # ==================================================================
    # lifecycle & fault injection
    # ==================================================================
    def start_all(self, settle: float = 2.0) -> None:
        """Start every replica and run until the first view settles."""
        for replica in self.replicas.values():
            replica.start()
        if settle > 0:
            self.run_for(settle)

    def run_for(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def run_until_idle(self) -> None:
        self.sim.run()

    def partition(self, *groups: Sequence[int]) -> None:
        self.topology.partition([list(g) for g in groups])

    def heal(self) -> None:
        self.topology.heal()

    def crash(self, node: int) -> None:
        self.topology.crash(node)
        self.replicas[node].crash()

    def recover(self, node: int) -> None:
        self.topology.recover(node)
        self.replicas[node].recover()

    def _topology_hint(self) -> None:
        """Fast-path failure detection (heartbeats remain the backstop)."""
        joined = {n for n, r in self.replicas.items()
                  if r.daemon.joined and self.topology.is_alive(n)}
        for node, replica in self.replicas.items():
            daemon = replica.daemon
            if not daemon.joined or not self.topology.is_alive(node):
                continue
            reachable = {m for m in
                         self.topology.component_members(node) if m in
                         joined}
            current = (set(daemon.view.members) if daemon.view is not None
                       else set())
            if reachable != current:
                daemon.topology_hint()

    # ==================================================================
    # clients
    # ==================================================================
    def client(self, node: int, name: Optional[str] = None) -> Client:
        """Attach a client to a replica.

        Default names are deterministic per cluster (not drawn from a
        process-global counter), so identical seeds replay identical
        histories even when client ids end up in the database.
        """
        if name is None:
            self._client_counter[node] = \
                self._client_counter.get(node, 0) + 1
            name = f"client-{node}.{self._client_counter[node]}"
        return Client(self.replicas[node], name=name)

    # ==================================================================
    # dynamic membership
    # ==================================================================
    def add_replica(self, new_id: int, peer: int,
                    peers: Optional[Sequence[int]] = None,
                    on_joined: Optional[Callable[[Replica], None]] = None
                    ) -> Replica:
        """Instantiate a brand-new replica (Section 5.1/5.2).

        The new node connects to ``peer`` (falling back to ``peers`` on
        failure), receives the database transfer, and then joins the
        replicated group.
        """
        if new_id in self.replicas:
            raise ValueError(f"replica {new_id} already exists")
        self.topology.add_node(new_id, component_like=peer)
        self.directory.add(new_id)
        replica = self._build_replica(new_id, [new_id])
        self.replicas[new_id] = replica
        replica.start(join_group=False)

        contact_order = list(peers) if peers else [peer]
        if peer not in contact_order:
            contact_order.insert(0, peer)

        def ready(header: TransferHeader) -> None:
            self._complete_join(replica, header)
            if on_joined is not None:
                on_joined(replica)

        replica.joiner = JoinerProtocol(self.sim, replica, contact_order,
                                        ready)
        replica.joiner.start()
        return replica

    def _complete_join(self, replica: Replica,
                       header: TransferHeader) -> None:
        """CodeSegment 5.2 lines 28-30: adopt the transferred state and
        start executing the replication algorithm."""
        engine = replica.engine
        for server in header.servers:
            engine.queue.add_server(server)
        engine.removed_servers = set(header.removed)
        engine.queue.green_offset = header.green_count
        engine.queue.set_green_line(replica.node, header.green_count)
        # The inherited database incorporates every action in its
        # applied log (Theorem 2): the red cut must reflect that, or the
        # first exchange would wait for retransmission of actions that
        # exist only as inherited state.
        engine.queue.cover(replica.database.applied_cut)
        engine.prim_component = type(engine.prim_component)(
            prim_index=0, attempt_index=0,
            servers=tuple(sorted(header.servers)))
        replica.store.wal.append("db_snapshot",
                                 replica.database.snapshot(), forced=False)
        engine._persist_records()
        engine._sync()
        engine.state = EngineState.NON_PRIM
        replica.daemon.join()
        self.tracer.emit(self.sim.now, replica.node, "replica.joined",
                         green=header.green_count)

    # ==================================================================
    # consistency checks (the paper's theorems, executable)
    # ==================================================================
    def running_replicas(self) -> List[Replica]:
        return [r for r in self.replicas.values()
                if r.running and not r.engine.exited]

    def applied_logs(self) -> Dict[int, List[ActionId]]:
        return {n: list(r.database.applied_log)
                for n, r in self.replicas.items()
                if r.running and not r.engine.exited}

    def assert_prefix_consistent(self) -> None:
        """Global Total Order: any two applied logs agree on their
        common prefix (Theorem 1)."""
        logs = list(self.applied_logs().items())
        for i in range(len(logs)):
            for j in range(i + 1, len(logs)):
                (node_a, log_a), (node_b, log_b) = logs[i], logs[j]
                common = min(len(log_a), len(log_b))
                if log_a[:common] != log_b[:common]:
                    diverge = next(k for k in range(common)
                                   if log_a[k] != log_b[k])
                    raise AssertionError(
                        f"total order violated between {node_a} and "
                        f"{node_b} at position {diverge}: "
                        f"{log_a[diverge]} vs {log_b[diverge]}")

    def assert_converged(self) -> None:
        """After a fault-free stable period, all running replicas hold
        identical green sequences and database states (Liveness)."""
        replicas = self.running_replicas()
        if not replicas:
            return
        self.assert_prefix_consistent()
        counts = {r.node: r.database.applied_count for r in replicas}
        if len(set(counts.values())) != 1:
            raise AssertionError(f"replicas not converged: {counts}")
        digests = {r.node: r.database.digest() for r in replicas}
        if len(set(digests.values())) != 1:
            raise AssertionError(f"database digests differ: {digests}")

    def primary_members(self) -> List[int]:
        """Nodes currently in a primary component."""
        return [n for n, r in self.replicas.items()
                if r.running and r.engine.in_primary]

    def assert_single_primary(self) -> None:
        """At most one component believes it is primary."""
        prims = set()
        for node, replica in self.replicas.items():
            if replica.running and replica.engine.state \
                    == EngineState.REG_PRIM:
                conf = replica.engine.conf
                if conf is not None:
                    prims.add(conf.view_id)
        if len(prims) > 1:
            raise AssertionError(f"multiple primary components: {prims}")

    def states(self) -> Dict[int, str]:
        return {n: (str(r.engine.state) if r.running else
                    ("exited" if r.engine.exited else "down"))
                for n, r in self.replicas.items()}
