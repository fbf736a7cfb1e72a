"""COReL baseline (Keidar 94): total order + per-action end-to-end acks.

COReL exploits group communication to improve on two-phase commit: an
action is multicast in the group's total order; every replica, upon
delivery, forces the action to its log and then multicasts an
acknowledgment; the action enters the global persistent order (and can
be applied) once acknowledgments from *all* replicas arrive.  Per
action: **1 forced disk write (at every replica) and n multicast
messages** — the cost model Section 7 of the paper ascribes to it.

This implementation reuses our EVS group communication stack with
AGREED (total order, no stability wait) delivery for actions, adding
the protocol's own end-to-end acknowledgment round on top — precisely
the per-action round our engine's use of SAFE delivery amortizes into
the GCS's internal, batched stability traffic.

Scope: the benchmark scenarios are failure-free, like the paper's; on a
view change this implementation preserves the committed prefix and
continues in a majority component, but does not reproduce COReL's full
recovery protocol (out of scope for the evaluation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..gcs import (Configuration, GcsDaemon, GcsListener, GcsSettings,
                   ServiceLevel)
from ..net import Network, NetworkProfile, Topology
from ..sim import RandomStreams, ServiceQueue, Simulator
from ..storage import DiskProfile, SimulatedDisk
from ..db.sql import execute_update
from .base import Completion, ReplicationSystemAPI


@dataclass(frozen=True)
class CorelAction:
    """An action multicast in total order."""

    txn_id: Tuple[int, int]          # (origin, local index)
    update: Tuple
    size: int = 200


@dataclass(frozen=True)
class CorelAck:
    """End-to-end acknowledgment: ``node`` has ``txn_id`` on stable
    storage."""

    txn_id: Tuple[int, int]
    node: int


class CorelReplica(GcsListener):
    """One COReL replica."""

    def __init__(self, system: "CorelSystem", node: int):
        self.system = system
        self.node = node
        self.sim = system.sim
        self.disk = SimulatedDisk(self.sim, node, system.disk_profile)
        self.cpu = ServiceQueue(self.sim)
        self.db_state: Dict = {}
        self.applied_log: List[Tuple[int, int]] = []
        self.daemon = GcsDaemon(self.sim, node, system.network,
                                system.directory, system.gcs_settings)
        self.daemon.listener = self
        self.view: Optional[Configuration] = None
        self.delivered: List[CorelAction] = []   # total order
        self.committed = 0                        # committed prefix length
        self.logged: Set[Tuple[int, int]] = set()
        self.acks: Dict[Tuple[int, int], Set[int]] = {}
        self.local_index = itertools.count(1)
        self.pending_complete: Dict[Tuple[int, int], Completion] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.daemon.start()
        self.daemon.join()

    def submit(self, update: Tuple, on_complete: Completion) -> None:
        txn_id = (self.node, next(self.local_index))
        self.pending_complete[txn_id] = on_complete
        self.daemon.multicast(CorelAction(txn_id, update),
                              ServiceLevel.AGREED, size=200)

    # ------------------------------------------------------------------
    # GCS callbacks
    # ------------------------------------------------------------------
    def on_regular_conf(self, conf: Configuration) -> None:
        self.view = conf

    def on_message(self, payload, origin: int, in_transitional: bool,
                   service: ServiceLevel) -> None:
        if isinstance(payload, CorelAction):
            self.delivered.append(payload)
            # Force the action to the log, then acknowledge end-to-end.
            self.disk.write(("corel", payload.txn_id),
                            callback=lambda p=payload: self._logged(p),
                            forced=True)
        elif isinstance(payload, CorelAck):
            self._note_ack(payload.txn_id, payload.node)

    def _logged(self, action: CorelAction) -> None:
        self.logged.add(action.txn_id)
        # The end-to-end acknowledgment is itself a group multicast
        # (n multicasts per action in total — COReL's cost model).
        self.daemon.multicast(CorelAck(action.txn_id, self.node),
                              ServiceLevel.FIFO, size=64)

    def _note_ack(self, txn_id: Tuple[int, int], node: int) -> None:
        self.acks.setdefault(txn_id, set()).add(node)
        self._advance_commit()

    def _advance_commit(self) -> None:
        """Commit the delivered prefix whose actions are fully acked."""
        members = (set(self.view.members) if self.view is not None
                   else {self.node})
        while self.committed < len(self.delivered):
            action = self.delivered[self.committed]
            if not members.issubset(self.acks.get(action.txn_id, set())):
                break
            self.committed += 1
            if action.update is not None:
                execute_update(self.db_state, action.update)
            self.applied_log.append(action.txn_id)
            ready = self.cpu.take(self.system.apply_cpu)
            completion = self.pending_complete.pop(action.txn_id, None)
            if completion is not None:
                self.sim.post_at(ready, completion)


class CorelSystem(ReplicationSystemAPI):
    """A cluster of COReL replicas (benchmark baseline)."""

    name = "corel"

    def __init__(self, n: int, seed: int = 0,
                 network_profile: Optional[NetworkProfile] = None,
                 disk_profile: Optional[DiskProfile] = None,
                 gcs_settings: Optional[GcsSettings] = None,
                 apply_cpu: float = 0.0004):
        self.apply_cpu = apply_cpu
        self._sim = Simulator()
        self.streams = RandomStreams(seed)
        self.node_ids = list(range(1, n + 1))
        self.topology = Topology(self.node_ids)
        self.network = Network(self._sim, self.topology, network_profile,
                               rng=self.streams.stream("network"))
        self.directory = set(self.node_ids)
        self.gcs_settings = gcs_settings or GcsSettings()
        self.disk_profile = disk_profile
        self.replicas = {node: CorelReplica(self, node)
                         for node in self.node_ids}

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def nodes(self) -> List[int]:
        return list(self.node_ids)

    def start(self, settle: float = 2.0) -> None:
        for replica in self.replicas.values():
            replica.start()
        if settle > 0:
            self._sim.run(until=self._sim.now + settle)

    def submit(self, node: int, update: Tuple,
               on_complete: Completion) -> None:
        self.replicas[node].submit(update, on_complete)

    def counters(self) -> Dict[str, float]:
        replicas = self.replicas.values()
        return {
            "datagrams": self.network.datagrams_sent,
            "bytes": self.network.bytes_sent,
            "forced_writes": sum(r.disk.forced_writes for r in replicas),
            "syncs": sum(r.disk.syncs for r in replicas),
            "greens": sum(r.committed for r in replicas),
        }
