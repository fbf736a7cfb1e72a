"""Experiment runner: drive a system with closed-loop clients and
measure steady-state throughput and latency in simulated time."""

from __future__ import annotations

from typing import Callable, List

from ..baselines.base import ReplicationSystemAPI
from .metrics import RunResult, summarize
from .workload import ClosedLoopClient, spread_clients

SystemFactory = Callable[[], ReplicationSystemAPI]


def run_closed_loop(factory: SystemFactory, clients: int,
                    duration: float = 10.0, warmup: float = 2.0,
                    settle: float = 2.0) -> RunResult:
    """One benchmark point: ``clients`` closed-loop clients for
    ``duration`` simulated seconds (after ``warmup``).

    A fresh system is built per point, so points are independent and
    deterministic.  Counters are measured as deltas over the
    measurement window only.
    """
    system = factory()
    system.start(settle=settle)
    loop = spread_clients(system, clients)
    for client in loop:
        client.start()

    system.sim.run(until=system.sim.now + warmup)
    baseline_counts = {c.client_id: c.completed for c in loop}
    for client in loop:
        client.latencies.clear()
    counters_before = system.counters()

    system.sim.run(until=system.sim.now + duration)
    counters_after = system.counters()

    latencies: List[float] = []
    for client in loop:
        client.stop()
        latencies.extend(client.latencies)
    counters = {key: counters_after.get(key, 0.0) - value
                for key, value in counters_before.items()}
    return summarize(system.name, clients, duration, latencies, counters)


def run_latency_probe(factory: SystemFactory, actions: int = 2000,
                      settle: float = 2.0) -> RunResult:
    """The paper's latency test: one client sends ``actions`` actions
    sequentially; report the mean response time."""
    system = factory()
    system.start(settle=settle)
    loop = ClosedLoopClient(system, system.nodes[0], 1)
    counters_before = system.counters()
    start = system.sim.now

    original = loop._on_complete

    def stop_at_quota() -> None:
        original()
        if loop.completed >= actions:
            loop.stop()
            system.sim.stop()

    loop._on_complete = stop_at_quota  # type: ignore[method-assign]
    loop.start()
    system.sim.run(until=system.sim.now + 600.0)
    duration = system.sim.now - start
    counters_after = system.counters()
    counters = {key: counters_after.get(key, 0.0) - value
                for key, value in counters_before.items()}
    return summarize(system.name, 1, duration, loop.latencies, counters)


def sweep_clients(factory: SystemFactory, client_counts: List[int],
                  duration: float = 10.0, warmup: float = 2.0
                  ) -> List[RunResult]:
    """Throughput-vs-clients series (the x-axis of Figure 5)."""
    return [run_closed_loop(factory, clients, duration, warmup)
            for clients in client_counts]
