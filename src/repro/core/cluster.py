"""Cluster harnesses: build, drive and check a whole replicated system.

:class:`Cluster` is the one composition root.  It builds the hosted
replicas on any :class:`~repro.runtime.base.Runtime` and
:class:`~repro.runtime.base.Transport` pair, names clients, injects
every fault (partition, heal, crash, recovery, online join) through the
:class:`~repro.net.Topology` the transport obeys, and evaluates the
paper's safety rules (:mod:`repro.core.invariants`) over its real
engines.
:class:`ReplicaCluster` adds what virtual time needs (the simulator,
the seeded network, stepping time); its asyncio counterpart is
:class:`~repro.runtime.LiveCluster`.  Used by the tests, the examples,
the scenario runner and the benchmark harnesses.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..db import ActionId
from ..gcs import GcsSettings
from ..net import Network, NetworkProfile, Topology
from ..obs import Observability
from ..sim import RandomStreams, Simulator
from ..storage import DiskProfile
from .client import Client
from .engine import EngineConfig
from .invariants import (EngineRecord, engine_record, green_prefix,
                         single_primary, unique_install, vulnerable_net)
from .replica import Replica


class Cluster:
    """Hosted replicas on one runtime and one transport."""

    def __init__(self, runtime: Any, transport: Any,
                 server_ids: Sequence[int], hosted: Sequence[int],
                 gcs_settings: GcsSettings,
                 engine_config: Optional[EngineConfig],
                 disk_profile: Optional[DiskProfile],
                 obs: Observability) -> None:
        self.runtime = runtime
        self.transport = transport
        # Every fault (partition, heal, crash, recover, join) is driven
        # through the reachability model the transport obeys.
        self.topology: Topology = transport.topology
        self.server_ids = list(server_ids)
        self.obs = obs
        # The per-node event log (state transitions, view installs,
        # suspicions, crashes): ``tracer.count(kind)``,
        # ``tracer.select(kind, node)``.
        self.tracer = obs.flight_hub
        self.directory: Set[int] = set(self.server_ids)
        self.gcs_settings = gcs_settings
        # None gives every replica its own default EngineConfig.
        self.engine_config = engine_config
        self.disk_profile = disk_profile
        self.replicas: Dict[int, Replica] = {}
        self._client_counter: Dict[int, int] = {}
        for node in hosted:
            self.replicas[node] = self._build_replica(node,
                                                      self.server_ids)
        if self.gcs_settings.use_topology_hints:
            self.topology.subscribe(self._topology_hint)

    def _build_replica(self, node: int,
                       server_ids: Sequence[int]) -> Replica:
        return Replica(self.runtime, node, self.transport, self.directory,
                       list(server_ids), disk_profile=self.disk_profile,
                       gcs_settings=self.gcs_settings,
                       engine_config=self.engine_config,
                       obs=self.obs)

    def start_all(self) -> None:
        for replica in self.replicas.values():
            replica.start()

    # ==================================================================
    # faults and membership
    # ==================================================================
    def partition(self, *groups: Sequence[int]) -> None:
        self.topology.partition([list(g) for g in groups])

    def heal(self) -> None:
        self.topology.heal()

    def crash(self, node: int) -> None:
        """Crash ``node``; one hosted by another process is only marked
        down here, as partitions are."""
        self.topology.crash(node)
        if node in self.replicas:
            self.replicas[node].crash()

    def recover(self, node: int) -> None:
        self.topology.recover(node)
        if node in self.replicas:
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
        contact_order = list(peers) if peers else [peer]
        if peer not in contact_order:
            contact_order.insert(0, peer)
        replica.join_from(contact_order, on_joined)
        return replica

    # ==================================================================
    # clients
    # ==================================================================
    def client(self, node: int, name: Optional[str] = None) -> Client:
        """Attach a client to a hosted replica.

        Default names are deterministic per cluster (not drawn from a
        process-global counter), so identical seeds replay identical
        histories even when client ids end up in the database.
        """
        if name is None:
            self._client_counter[node] = \
                self._client_counter.get(node, 0) + 1
            name = f"client-{node}.{self._client_counter[node]}"
        return Client(self.replicas[node], name=name)

    def submit(self, node: int, update: Tuple,
               on_complete: Optional[Callable] = None) -> ActionId:
        return self.replicas[node].submit(update, on_complete=on_complete)

    # ==================================================================
    # introspection
    # ==================================================================
    def running_replicas(self) -> List[Replica]:
        """Hosted replicas neither crashed nor exited (the ones every
        check below looks at)."""
        return [r for r in self.replicas.values()
                if r.running and not r.engine.exited]

    def states(self) -> Dict[int, str]:
        return {n: (str(r.engine.state) if r.running else
                    ("exited" if r.engine.exited else "down"))
                for n, r in self.replicas.items()}

    def green_counts(self) -> Dict[int, int]:
        """Green actions applied to the database per running replica."""
        return {r.node: r.database.applied_count
                for r in self.running_replicas()}

    def green_order(self, node: int) -> List[ActionId]:
        """All green action ids applied at ``node``, in order (the
        database's applied log: checkpoint truncation of the action
        queue does not window it)."""
        return list(self.replicas[node].database.applied_log)

    def applied_logs(self) -> Dict[int, List[ActionId]]:
        return {r.node: list(r.database.applied_log)
                for r in self.running_replicas()}

    def primary_members(self) -> List[int]:
        """Nodes currently in a primary component."""
        return [n for n, r in self.replicas.items()
                if r.running and r.engine.in_primary]

    def engine_records(self) -> Dict[int, EngineRecord]:
        """The rules' record of every hosted replica, in node order;
        the green line is the applied log.  A crashed replica keeps its
        last records, as the model checker keeps a down node's."""
        return {n: engine_record(r.engine, tuple(r.database.applied_log))
                for n, r in sorted(self.replicas.items())}

    def components(self) -> List[Tuple[int, ...]]:
        """The topology's components, restricted to running replicas."""
        running = {r.node for r in self.running_replicas()}
        comps = (tuple(sorted(n for n in comp if n in running))
                 for comp in self.topology.components())
        return [comp for comp in comps if comp]

    # ==================================================================
    # consistency checks: the rules of repro.core.invariants
    # ==================================================================
    def assert_prefix_consistent(self) -> None:
        """``green-prefix`` over the running replicas' applied logs:
        Global Total Order (Theorem 1)."""
        _raise(green_prefix(self.applied_logs()))

    def assert_same_green_order(self) -> List[ActionId]:
        """Every running replica applied the identical green order
        (Theorem 1's observable once traffic stops); returns it."""
        self.assert_prefix_consistent()
        replicas = self.running_replicas()
        counts = {r.node: r.database.applied_count for r in replicas}
        if len(set(counts.values())) > 1:
            raise AssertionError(f"replicas not converged: {counts}")
        return self.green_order(replicas[0].node) if replicas else []

    def assert_converged(self) -> None:
        """After a fault-free stable period, all running replicas hold
        identical green sequences and database states (Liveness), and
        the safety rules of :meth:`assert_single_primary` hold."""
        self.assert_same_green_order()
        digests = {r.node: r.database.digest()
                   for r in self.running_replicas()}
        if len(set(digests.values())) > 1:
            raise AssertionError(f"database digests differ: {digests}")
        self.assert_single_primary()

    def assert_single_primary(self) -> None:
        """``single-primary``, ``unique-install`` and ``vulnerable-net``
        over :meth:`engine_records`, the running replicas' views and
        :meth:`components`, under the configured quorum policy."""
        records = self.engine_records()
        views = {r.node: r.engine.conf.view_id
                 for r in self.running_replicas()
                 if r.engine.conf is not None}
        policy = (self.engine_config or EngineConfig()).quorum
        _raise(single_primary(records, views) + unique_install(records)
               + vulnerable_net(records, self.components(), policy,
                                sorted(self.directory)))


def _raise(findings: List[str]) -> None:
    if findings:
        raise AssertionError("; ".join(findings))


class ReplicaCluster(Cluster):
    """A simulated cluster of database replicas, in virtual time."""

    def __init__(self, n: int = 3,
                 server_ids: Optional[Sequence[int]] = None,
                 seed: int = 0,
                 network_profile: Optional[NetworkProfile] = None,
                 disk_profile: Optional[DiskProfile] = None,
                 gcs_settings: Optional[GcsSettings] = None,
                 engine_config: Optional[EngineConfig] = None,
                 observability: Optional[Observability] = None) -> None:
        ids = (list(server_ids) if server_ids is not None
               else list(range(1, n + 1)))
        # The deterministic Runtime, also reachable as `runtime`.
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.network = Network(self.sim, Topology(ids), network_profile,
                               rng=self.streams.stream("network"))
        # Disabled by default: simulated clusters keep plain counters
        # but pay nothing for spans/histograms unless asked.
        super().__init__(
            self.sim, self.network, ids, ids,
            gcs_settings or GcsSettings(), engine_config, disk_profile,
            observability if observability is not None
            else Observability.disabled())

    # ==================================================================
    # time
    # ==================================================================
    def start_all(self, settle: float = 2.0) -> None:
        """Start every replica and run until the first view settles."""
        super().start_all()
        if settle > 0:
            self.run_for(settle)

    def run_for(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)
