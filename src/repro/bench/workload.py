"""Workload generation: the paper's closed-loop client model.

"The clients are constantly injecting actions into the system, the next
action from a client being introduced immediately after the previous
action from that client is completed and its result reported to the
client."  (Section 7.)

Each client writes 200-byte actions; keys are distinct per client so
the 2PC baseline's lock manager measures protocol cost, not artificial
contention (matching the paper's setup, which bypassed the database).
"""

from __future__ import annotations

from typing import List

from ..baselines.base import ReplicationSystemAPI


class ClosedLoopClient:
    """One closed-loop client bound to a node."""

    def __init__(self, system: ReplicationSystemAPI, node: int,
                 client_id: int):
        self.system = system
        self.node = node
        self.client_id = client_id
        self.submitted = 0
        self.completed = 0
        self.latencies: List[float] = []
        self._started_at = 0.0
        self._running = False

    def start(self) -> None:
        self._running = True
        self._inject()

    def stop(self) -> None:
        self._running = False

    def _inject(self) -> None:
        self.submitted += 1
        self._started_at = self.system.sim.now
        update = ("SET", f"c{self.client_id}", self.submitted)
        self.system.submit(self.node, update, self._on_complete)

    def _on_complete(self) -> None:
        self.completed += 1
        self.latencies.append(self.system.sim.now - self._started_at)
        if self._running:
            self._inject()


def spread_clients(system: ReplicationSystemAPI,
                   count: int) -> List[ClosedLoopClient]:
    """Create ``count`` clients, one per node round-robin (the paper's
    placement: at 14 clients, every computer has a replica + client)."""
    nodes = system.nodes
    return [ClosedLoopClient(system, nodes[i % len(nodes)], i + 1)
            for i in range(count)]
