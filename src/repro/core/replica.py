"""Replica: the full per-node stack.

Wires together one node's disk, write-ahead log, stable store, database,
group communication daemon, reliable channel endpoint, and replication
engine — the three processes of the paper's node model (database server,
replication engine, group communication layer) plus the stable storage
they share.  Handles crash/recovery as a unit: "the crash of any of the
components running on a node ... is treated as a global node crash".
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Set, Tuple)

from ..db import Action, ActionId, Database
from ..gcs import (GcsDaemon, GcsSettings, GroupChannel,
                   ReliableChannelEndpoint)
from ..net import Datagram
from ..obs import Observability
from ..sim import ServiceQueue, Timer
from ..storage import DiskProfile, SimulatedDisk, StableStore, WriteAheadLog
from .engine import (ENGINE_COUNTERS, EngineConfig, EngineHooks,
                     ReplicationEngine)
from .recovery import recover_engine
from .reconfig import (JoinerProtocol, JoinRequest, RepresentativeRole,
                       TransferHeader, make_leave_action)
from .state_machine import EngineInput, EngineState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.base import Runtime, Transport

Completion = Callable[[Action, int, Any], None]

#: Figure 4 states as gauge codes (stable across enum reordering).
_STATE_CODES = {
    EngineState.NON_PRIM: 0, EngineState.REG_PRIM: 1,
    EngineState.TRANS_PRIM: 2, EngineState.EXCHANGE_STATES: 3,
    EngineState.EXCHANGE_ACTIONS: 4, EngineState.CONSTRUCT: 5,
    EngineState.NO: 6, EngineState.UN: 7,
}


class _ReplicaHooks(EngineHooks):
    """Engine upcalls routed to the owning replica."""

    def __init__(self, replica: "Replica") -> None:
        self.replica = replica

    def on_green(self, action: Action, position: int, result: Any) -> None:
        self.replica._on_green(action, position, result)

    def on_red(self, action: Action) -> None:
        self.replica._on_red(action)

    def on_state_change(self, old: EngineState, new: EngineState,
                        cause: EngineInput) -> None:
        for listener in self.replica._state_listeners:
            listener(old, new)

    def start_transfer(self, join_action: Action, position: int) -> None:
        self.replica.representative.start_transfer(join_action, position)

    def on_exit(self) -> None:
        self.replica._on_engine_exit()


class Replica:
    """One node of the replicated database system."""

    # Read only by perfbench's counter harness; ROADMAP 12(a) drops it.
    batcher = None

    def __init__(self, sim: "Runtime", node: int, network: "Transport",
                 directory: Set[int], server_ids: List[int],
                 disk_profile: Optional[DiskProfile] = None,
                 gcs_settings: Optional[GcsSettings] = None,
                 engine_config: Optional[EngineConfig] = None,
                 obs: Optional[Observability] = None) -> None:
        self.sim = sim
        self.node = node
        self.network = network
        self.obs = obs if obs is not None else Observability.disabled()
        # This node's event log: crashes, recoveries, joins.
        self._log = self.obs.flight_hub.recorder(node)
        self.server_ids = list(server_ids)
        self.engine_config = engine_config or EngineConfig()

        self.disk = SimulatedDisk(sim, node, disk_profile, obs=self.obs)
        self.wal = WriteAheadLog(self.disk, obs=self.obs)
        self.store = StableStore(self.wal)
        self.database = Database()

        self.gcs_settings = gcs_settings or GcsSettings()
        self.daemon = GcsDaemon(sim, node, network, directory,
                                self.gcs_settings,
                                extra_dispatch=self._extra_dispatch,
                                obs=self.obs)
        self.channel = GroupChannel(self.daemon)
        self.endpoint = ReliableChannelEndpoint(
            sim, node, network, self._on_channel_message, obs=self.obs)
        self.engine = ReplicationEngine(
            sim, node, self.channel, self.store, self.database,
            self.server_ids, self.engine_config, _ReplicaHooks(self),
            obs=self.obs)
        self.representative = RepresentativeRole(self)
        if self.obs.enabled:
            # Read through ``self.engine``/``self.running`` at collect
            # time, so recovery's rebuilt engine is picked up for free
            # and its counters restart from zero.
            registry = self.obs.registry
            for name, help, fn in (
                    ("repro_engine_state",
                     "Engine state (Figure 4): 0=NonPrim 1=RegPrim "
                     "2=TransPrim 3=ExchangeStates 4=ExchangeActions "
                     "5=Construct 6=No 7=Un.",
                     lambda: _STATE_CODES.get(self.engine.state, -1)),
                    ("repro_engine_green_count",
                     "Actions on the green (globally ordered) line.",
                     lambda: self.engine.queue.green_count),
                    ("repro_engine_ongoing_actions",
                     "Locally originated actions not yet green "
                     "(ongoingQueue depth).",
                     lambda: len(self.engine.ongoing)),
                    ("repro_replica_running",
                     "1 while the node is up, 0 after a crash.",
                     lambda: 1 if self.running else 0)):
                registry.gauge_callback(name, fn, help,
                                        ("server",), (node,))
            for key, (name, help) in ENGINE_COUNTERS.items():
                registry.counter_callback(
                    name, lambda key=key: self.engine.stats[key], help,
                    ("server",), (node,))
        self.joiner: Optional[JoinerProtocol] = None   # see join_from

        self.cpu = ServiceQueue(sim)
        # Deterministic procedures (active actions) are code, not
        # data: they must survive crash recovery and be identical at
        # every replica.  Register through the replica, never directly
        # on the database, so recovery can re-install them before the
        # green replay.
        self.procedures: Dict[str, Any] = {}
        self._pending: Dict[ActionId, Completion] = {}
        self._green_listeners: List[Callable[[Action, int, Any], None]] = []
        self._red_listeners: List[Callable[[Action], None]] = []
        self._state_listeners: List[
            Callable[[EngineState, EngineState], None]] = []
        self._checkpoint = Timer(sim, self._do_checkpoint,
                                 self.engine_config.checkpoint_interval,
                                 periodic=True)
        self.running = False

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self, join_group: bool = True) -> None:
        """Boot the node; optionally join the replication group."""
        self.daemon.start()
        self.endpoint.start()
        self._checkpoint.start()
        self.running = True
        if join_group:
            self.daemon.join()

    def crash(self) -> None:
        """Node crash: all volatile state is lost."""
        self.running = False
        self.daemon.crash()
        self.endpoint.stop()
        self._checkpoint.stop()
        self.disk.crash()
        self.store.crash()
        self.cpu.reset()
        self._pending = {}
        self._log.record(self.sim.now, "replica.crash")

    def register_procedure(self, name: str, procedure: Any) -> None:
        """Register a deterministic procedure, durably across
        recoveries.  Must be performed identically at every replica."""
        self.procedures[name] = procedure
        self.database.register_procedure(name, procedure)

    def recover(self) -> None:
        """Recover from stable storage and rejoin (A.13)."""
        self.database = Database()
        for name, procedure in self.procedures.items():
            self.database.register_procedure(name, procedure)
        self.engine = ReplicationEngine(
            self.sim, self.node, self.channel, self.store, self.database,
            [self.node], self.engine_config, _ReplicaHooks(self),
            obs=self.obs)
        recover_engine(self.engine)
        self.daemon.recover()
        self.endpoint.start()
        self._checkpoint.start()
        self.running = True
        self.daemon.join()
        self._log.record(self.sim.now, "replica.recover")

    def join_from(self, peers: List[int],
                  on_joined: Optional[Callable[["Replica"], None]] = None
                  ) -> None:
        """Boot as a brand-new replica (Section 5.1/5.2): fetch the
        database from the first of ``peers`` that serves it, adopt it,
        then join the replicated group."""
        self.start(join_group=False)

        def ready(header: TransferHeader) -> None:
            self._adopt_transfer(header)
            if on_joined is not None:
                on_joined(self)

        self.joiner = JoinerProtocol(self.sim, self, peers, ready)
        self.joiner.start()

    def _adopt_transfer(self, header: TransferHeader) -> None:
        """CodeSegment 5.2 lines 28-30: adopt the transferred state and
        start executing the replication algorithm."""
        engine = self.engine
        green_count = header.header["applied_count"]
        for server in header.servers:
            engine.queue.add_server(server)
        engine.removed_servers = set(header.removed)
        engine.queue.green_offset = green_count
        engine.queue.set_green_line(self.node, green_count)
        # The inherited database incorporates every action in its
        # applied log (Theorem 2): the red cut must reflect that, or the
        # first exchange would wait for retransmission of actions that
        # exist only as inherited state.
        engine.queue.cover(self.database.applied_cut)
        engine.prim_component = type(engine.prim_component)(
            prim_index=0, attempt_index=0,
            servers=tuple(sorted(header.servers)))
        self.store.wal.append("db_snapshot", self.database.snapshot(),
                              forced=False)
        engine._persist_records()
        engine._sync()
        self.daemon.join()
        self._log.record(self.sim.now, "replica.joined",
                         detail={"green": green_count})

    def leave(self) -> ActionId:
        """Voluntarily and permanently leave the replicated system."""
        action = make_leave_action(self.engine, self.node)
        self.engine.submit_action(action)
        return action.action_id

    def remove_dead_replica(self, dead_server: int) -> ActionId:
        """Administratively remove a permanently failed replica."""
        action = make_leave_action(self.engine, dead_server)
        self.engine.submit_action(action)
        return action.action_id

    def _on_engine_exit(self) -> None:
        self.running = False
        self.daemon.leave()
        self._checkpoint.stop()

    def _do_checkpoint(self) -> None:
        if self.running and not self.engine.exited:
            self.engine.checkpoint()

    # ==================================================================
    # client interface
    # ==================================================================
    def submit(self, update: Optional[Tuple], query: Optional[Tuple] = None,
               client: Any = None,
               on_complete: Optional[Completion] = None,
               meta: Optional[dict] = None) -> ActionId:
        """Submit an action; ``on_complete`` fires at global ordering."""
        action_id = self.engine.submit(update=update, query=query,
                                       client=client, meta=meta)
        if on_complete is not None:
            self._pending[action_id] = on_complete
        return action_id

    # ==================================================================
    # engine upcalls
    # ==================================================================
    def _on_green(self, action: Action, position: int, result: Any) -> None:
        # Every replica pays the per-action processing cost; clients see
        # their response once the replication server's CPU caught up.
        ready = self.cpu.take(self.engine_config.apply_cpu)
        completion = None
        if action.server_id == self.node:
            completion = self._pending.pop(action.action_id, None)
        if completion is not None or self._green_listeners:
            self.sim.post_at(ready, self._notify_green, action,
                             position, result, completion)

    def _notify_green(self, action: Action, position: int, result: Any,
                      completion: Optional[Completion]) -> None:
        if not self.running:
            return
        if completion is not None:
            completion(action, position, result)
        for listener in self._green_listeners:
            listener(action, position, result)

    def _on_red(self, action: Action) -> None:
        for listener in self._red_listeners:
            listener(action)

    def add_green_listener(self, listener: Callable[[Action, int, Any],
                                                    None]) -> None:
        self._green_listeners.append(listener)

    def add_red_listener(self, listener: Callable[[Action], None]) -> None:
        self._red_listeners.append(listener)

    def add_state_listener(self, listener: Callable[
            [EngineState, EngineState], None]) -> None:
        self._state_listeners.append(listener)

    # ==================================================================
    # channel plumbing (join/transfer protocol)
    # ==================================================================
    def _extra_dispatch(self, datagram: Datagram) -> bool:
        return self.endpoint.on_datagram(datagram)

    def _on_channel_message(self, peer: int, payload: Any) -> None:
        if self.joiner is not None and self.joiner.on_message(payload):
            return
        if isinstance(payload, JoinRequest):
            self.representative.on_join_request(payload)

    # ==================================================================
    # introspection
    # ==================================================================
    @property
    def state(self) -> EngineState:
        return self.engine.state

    @property
    def green_count(self) -> int:
        return self.engine.queue.green_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Replica {self.node} {self.engine.state}>"
