"""Two-phase commit replication baseline.

The classic strict-consistency approach (Section 1.1 / Section 7): the
submitting server coordinates each action — PREPARE unicasts to every
replica, each participant acquires write locks and forces a prepare
record to its log before voting; on a unanimous yes the coordinator
forces a commit record, answers the client, and propagates COMMIT.

Per action: **2 forced disk writes in the critical path** (participant
prepare + coordinator commit — they serialize, which is why the paper
measures ~19.3 ms against ~11.4 ms for the engine and COReL) **and 2n
unicast messages** (prepares + votes; commits ride after the response).

Partition behavior is the protocol's classic weakness: a participant
prepared for an unreachable coordinator is *blocked* (locks held); the
coordinator aborts transactions it cannot prepare everywhere.  The
``blocked_transactions`` counter exposes this in the availability
ablation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..db.sql import execute_update
from ..net import Datagram, Network, NetworkProfile, Topology
from ..sim import Actor, RandomStreams, ServiceQueue, Simulator
from ..storage import DiskProfile, SimulatedDisk
from .base import Completion, ReplicationSystemAPI

TxnId = Tuple[int, int]


@dataclass(frozen=True)
class Prepare:
    txn_id: TxnId
    update: Tuple
    keys: Tuple[str, ...]
    wire_size = 200


@dataclass(frozen=True)
class Vote:
    txn_id: TxnId
    node: int
    yes: bool
    wire_size = 64


@dataclass(frozen=True)
class Commit:
    txn_id: TxnId
    wire_size = 64


@dataclass(frozen=True)
class Abort:
    txn_id: TxnId
    wire_size = 64


def update_keys(update: Tuple) -> Tuple[str, ...]:
    """Write set of an update (keys of its statements)."""
    if update and isinstance(update[0], str):
        statements = (update,)
    else:
        statements = update
    return tuple(stmt[1] for stmt in statements if len(stmt) > 1)


class _Coordinator:
    """Per-transaction coordinator bookkeeping."""

    def __init__(self, txn_id: TxnId, update: Tuple,
                 participants: Set[int], on_complete: Completion):
        self.txn_id = txn_id
        self.update = update
        self.participants = participants
        self.votes: Set[int] = set()
        self.on_complete = on_complete
        self.decided = False


class TwoPCReplica(Actor):
    """One replica running coordinator + participant roles."""

    def __init__(self, system: "TwoPCSystem", node: int):
        super().__init__(system.sim, name=f"2pc{node}")
        self.system = system
        self.node = node
        self.disk = SimulatedDisk(self.sim, node, system.disk_profile)
        self.cpu = ServiceQueue(self.sim)
        self.db_state: Dict = {}
        self.applied_log: List[TxnId] = []
        self.local_index = itertools.count(1)
        self.coordinating: Dict[TxnId, _Coordinator] = {}
        self.prepared: Dict[TxnId, Prepare] = {}
        self.locks: Dict[str, TxnId] = {}
        self.lock_queue: Dict[str, List[Tuple[TxnId, Prepare]]] = {}
        self.blocked_transactions = 0
        self.aborted = 0

    def start(self) -> None:
        self.system.network.attach(self.node, self._on_datagram)

    # ------------------------------------------------------------------
    # coordinator role
    # ------------------------------------------------------------------
    def submit(self, update: Tuple, on_complete: Completion) -> None:
        txn_id = (self.node, next(self.local_index))
        others = {n for n in self.system.node_ids if n != self.node}
        coord = _Coordinator(txn_id, update, others, on_complete)
        self.coordinating[txn_id] = coord
        prepare = Prepare(txn_id, update, update_keys(update))
        for participant in sorted(others):
            self.system.network.send(self.node, participant, prepare)
        # The coordinator is also a participant for its own action.
        self._participant_prepare(prepare, local=True)
        self.after(self.system.timeout, self._check_timeout, txn_id)

    @staticmethod
    def _priority(txn_id: TxnId):
        """Wait-die age: lower (index, node) is older and may wait."""
        return (txn_id[1], txn_id[0])

    def _on_vote(self, vote: Vote) -> None:
        coord = self.coordinating.get(vote.txn_id)
        if coord is None or coord.decided:
            return
        if not vote.yes:
            self._decide_abort(coord)
            return
        coord.votes.add(vote.node)
        if coord.votes >= coord.participants:
            self._decide_commit(coord)

    def _decide_commit(self, coord: _Coordinator) -> None:
        coord.decided = True
        # Second forced write of the critical path: the commit record.
        self.disk.write(("commit", coord.txn_id),
                        callback=lambda: self._commit_done(coord),
                        forced=True)

    def _commit_done(self, coord: _Coordinator) -> None:
        self._apply(coord.txn_id)
        self.sim.post_at(self.cpu.take(self.system.apply_cpu),
                         coord.on_complete)
        commit = Commit(coord.txn_id)
        for participant in sorted(coord.participants):
            self.system.network.send(self.node, participant, commit)
        del self.coordinating[coord.txn_id]

    def _decide_abort(self, coord: _Coordinator) -> None:
        coord.decided = True
        self.aborted += 1
        abort = Abort(coord.txn_id)
        for participant in sorted(coord.participants):
            self.system.network.send(self.node, participant, abort)
        self._release(coord.txn_id)
        del self.coordinating[coord.txn_id]

    def _check_timeout(self, txn_id: TxnId) -> None:
        coord = self.coordinating.get(txn_id)
        if coord is not None and not coord.decided:
            self._decide_abort(coord)

    # ------------------------------------------------------------------
    # participant role
    # ------------------------------------------------------------------
    def _participant_prepare(self, prepare: Prepare,
                             local: bool = False) -> None:
        granted = self._acquire_locks(prepare)
        if granted is None:
            # Wait-die says this transaction must not wait: vote NO so
            # its coordinator aborts it (deadlock prevention).
            self._vote_no(prepare)
            return
        if not granted:
            return  # queued; will re-enter when locks free
        self.prepared[prepare.txn_id] = prepare
        # First forced write of the critical path: the prepare record.
        self.disk.write(("prepare", prepare.txn_id),
                        callback=lambda: self._vote(prepare, local),
                        forced=True)

    def _vote(self, prepare: Prepare, local: bool) -> None:
        self._send_vote(Vote(prepare.txn_id, self.node, True))

    def _vote_no(self, prepare: Prepare) -> None:
        self._send_vote(Vote(prepare.txn_id, self.node, False))

    def _send_vote(self, vote: Vote) -> None:
        coordinator = vote.txn_id[0]
        if coordinator == self.node:
            self._on_vote(vote)
        else:
            self.system.network.send(self.node, coordinator, vote)

    def _on_commit(self, commit: Commit) -> None:
        if commit.txn_id in self.prepared:
            self._apply(commit.txn_id)
            self.cpu.take(self.system.apply_cpu)
            self.disk.write(("commit", commit.txn_id), forced=False)

    def _on_abort(self, abort: Abort) -> None:
        self.prepared.pop(abort.txn_id, None)
        self._release(abort.txn_id)

    def _apply(self, txn_id: TxnId) -> None:
        prepare = self.prepared.pop(txn_id, None)
        if prepare is None:
            return
        execute_update(self.db_state, prepare.update)
        self.applied_log.append(txn_id)
        self._release(txn_id, prepare)

    # ------------------------------------------------------------------
    # lock manager
    # ------------------------------------------------------------------
    def _acquire_locks(self, prepare: Prepare) -> Optional[bool]:
        """True = granted; False = queued (waiting); None = must die
        (wait-die: only older transactions may wait for younger ones)."""
        for key in prepare.keys:
            holder = self.locks.get(key)
            if holder is not None and holder != prepare.txn_id:
                if self._priority(prepare.txn_id) > self._priority(holder):
                    return None
                self.lock_queue.setdefault(key, []).append(
                    (prepare.txn_id, prepare))
                self.blocked_transactions += 1
                return False
        for key in prepare.keys:
            self.locks[key] = prepare.txn_id
        return True

    def _release(self, txn_id: TxnId,
                 prepare: Optional[Prepare] = None) -> None:
        keys = (prepare.keys if prepare is not None
                else [k for k, holder in self.locks.items()
                      if holder == txn_id])
        retry: List[Prepare] = []
        for key in keys:
            if self.locks.get(key) == txn_id:
                del self.locks[key]
            queue = self.lock_queue.get(key)
            if queue:
                _txn, queued = queue.pop(0)
                retry.append(queued)
        # Scrub any remaining queue entries of the released transaction
        # (an aborted transaction must not be granted a lock later).
        for queue in self.lock_queue.values():
            queue[:] = [(t, p) for t, p in queue if t != txn_id]
        for queued in retry:
            self._participant_prepare(queued)

    # ------------------------------------------------------------------
    def _on_datagram(self, datagram: Datagram) -> None:
        payload = datagram.payload
        if isinstance(payload, Prepare):
            self._participant_prepare(payload)
        elif isinstance(payload, Vote):
            self._on_vote(payload)
        elif isinstance(payload, Commit):
            self._on_commit(payload)
        elif isinstance(payload, Abort):
            self._on_abort(payload)


class TwoPCSystem(ReplicationSystemAPI):
    """A cluster of 2PC replicas (benchmark baseline)."""

    name = "2pc"

    def __init__(self, n: int, seed: int = 0,
                 network_profile: Optional[NetworkProfile] = None,
                 disk_profile: Optional[DiskProfile] = None,
                 timeout: float = 5.0, apply_cpu: float = 0.0004):
        self.apply_cpu = apply_cpu
        self._sim = Simulator()
        self.streams = RandomStreams(seed)
        self.node_ids = list(range(1, n + 1))
        self.topology = Topology(self.node_ids)
        self.network = Network(self._sim, self.topology, network_profile,
                               rng=self.streams.stream("network"))
        self.disk_profile = disk_profile
        self.timeout = timeout
        self.replicas = {node: TwoPCReplica(self, node)
                         for node in self.node_ids}

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def nodes(self) -> List[int]:
        return list(self.node_ids)

    def start(self, settle: float = 0.1) -> None:
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
            "greens": sum(len(r.applied_log) for r in replicas),
            "aborted": sum(r.aborted for r in replicas),
            "blocked": sum(r.blocked_transactions for r in replicas),
        }
