"""Connectivity model: components, crashes, partitions, heals.

The topology is the ground truth of who can talk to whom.  Nodes live in
named *components*; two nodes can exchange messages iff both are up and
they share a component.  Fault injection mutates the topology; listeners
(the network fabric, optional fast failure-detector hints) are notified
on every change.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, final)


class TopologyError(Exception):
    """Raised for malformed topology mutations."""


@final
class Topology:
    """Partitionable set of nodes.

    All nodes start alive in a single component.  ``partition`` splits
    the node set into disjoint groups; ``heal`` joins them all again.
    ``crash``/``recover`` toggle per-node liveness independently of the
    component structure (a crashed node keeps its component slot).
    """

    def __init__(self, nodes: Iterable[int]) -> None:
        self.nodes: List[int] = sorted(set(nodes))
        if not self.nodes:
            raise TopologyError("topology needs at least one node")
        self._component_of: Dict[int, int] = {n: 0 for n in self.nodes}
        self._alive: Dict[int, bool] = {n: True for n in self.nodes}
        self._next_component = 1
        self._listeners: List[Callable[[], None]] = []
        # Fast path: in the (overwhelmingly common) healthy state —
        # every node alive, one component — reachability is just "both
        # nodes exist".  Recomputed on every mutation, checked per
        # datagram.
        self._all_connected = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_alive(self, node: int) -> bool:
        return self._alive.get(node, False)

    def reachable(self, a: int, b: int) -> bool:
        """True iff a and b are both alive and in the same component."""
        alive = self._alive
        if self._all_connected:
            return a in alive and b in alive
        if a == b:
            return alive.get(a, False)
        return (alive.get(a, False) and alive.get(b, False)
                and self._component_of[a] == self._component_of[b])

    def component_members(self, node: int) -> FrozenSet[int]:
        """Alive nodes sharing ``node``'s component (including itself if
        alive)."""
        comp = self._component_of[node]
        return frozenset(n for n in self.nodes
                         if self._component_of[n] == comp and self._alive[n])

    def components(self) -> List[FrozenSet[int]]:
        """All components as frozensets of alive members (non-empty only)."""
        by_comp: Dict[int, Set[int]] = {}
        for n in self.nodes:
            if self._alive[n]:
                by_comp.setdefault(self._component_of[n], set()).add(n)
        return [frozenset(v) for _, v in sorted(by_comp.items())]

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def add_node(self, node: int,
                 component_like: Optional[int] = None) -> None:
        """Add a brand-new node (dynamic replica instantiation).

        The node joins the component of ``component_like`` if given, else
        a fresh singleton component.
        """
        if node in self._component_of:
            raise TopologyError(f"node {node} already exists")
        self.nodes.append(node)
        self.nodes.sort()
        if component_like is not None:
            if component_like not in self._component_of:
                raise TopologyError(f"unknown node {component_like}")
            self._component_of[node] = self._component_of[component_like]
        else:
            self._component_of[node] = self._next_component
            self._next_component += 1
        self._alive[node] = True
        self._notify()

    def partition(self, groups: Sequence[Iterable[int]]) -> None:
        """Split the whole node set into the given disjoint groups.

        Every node must appear in exactly one group.  Liveness is
        unaffected.
        """
        seen: Set[int] = set()
        for group in groups:
            for n in group:
                if n not in self._component_of:
                    raise TopologyError(f"unknown node {n}")
                if n in seen:
                    raise TopologyError(f"node {n} in two groups")
                seen.add(n)
        if seen != set(self.nodes):
            missing = set(self.nodes) - seen
            raise TopologyError(f"nodes not assigned to any group: "
                                f"{sorted(missing)}")
        for group in groups:
            comp = self._next_component
            self._next_component += 1
            for n in group:
                self._component_of[n] = comp
        self._notify()

    def heal(self) -> None:
        """Put every node into a single component."""
        comp = self._next_component
        self._next_component += 1
        for n in self.nodes:
            self._component_of[n] = comp
        self._notify()

    def crash(self, node: int) -> None:
        if node not in self._alive:
            raise TopologyError(f"unknown node {node}")
        if self._alive[node]:
            self._alive[node] = False
            self._notify()

    def recover(self, node: int) -> None:
        if node not in self._alive:
            raise TopologyError(f"unknown node {node}")
        if not self._alive[node]:
            self._alive[node] = True
            self._notify()

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[], None]) -> None:
        """Register a callback invoked after every topology change."""
        self._listeners.append(callback)

    def _notify(self) -> None:
        alive = self._alive
        self._all_connected = (
            all(alive.values())
            and len(set(self._component_of.values())) <= 1)
        for callback in list(self._listeners):
            callback()
