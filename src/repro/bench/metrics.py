"""Measurement: throughput/latency in simulated time, resource deltas."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

# Canonical percentile lives with the observability instruments; kept
# importable from here for the benchmark suite's historical call sites.
from ..obs.metrics import percentile  # noqa: F401  (re-export)


@dataclass
class RunResult:
    """One benchmark point."""

    system: str
    clients: int
    duration: float
    actions_completed: int
    throughput: float                 # actions / simulated second
    mean_latency: float               # seconds
    median_latency: float
    p99_latency: float
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_latency_ms(self) -> float:
        return self.mean_latency * 1e3

    def per_action(self, counter: str) -> float:
        if self.actions_completed == 0:
            return math.nan
        return self.counters.get(counter, 0.0) / self.actions_completed


def summarize(system_name: str, clients: int, duration: float,
              latencies: List[float],
              counters: Dict[str, float]) -> RunResult:
    completed = len(latencies)
    return RunResult(
        system=system_name, clients=clients, duration=duration,
        actions_completed=completed,
        throughput=completed / duration if duration > 0 else 0.0,
        mean_latency=(sum(latencies) / completed) if completed else 0.0,
        median_latency=percentile(latencies, 0.50),
        p99_latency=percentile(latencies, 0.99),
        counters=dict(counters))
