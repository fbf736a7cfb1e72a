"""Shared configuration and reporting for the benchmark suite.

All benchmarks use the paper's setup (Section 7): 14 replicas on a
100 Mbit/s LAN, 200-byte actions, closed-loop clients.  Throughput and
latency are measured in *simulated* time — pytest-benchmark's wall
clock only reports how long the simulation itself takes to run.

Every benchmark writes its paper-style table to
``benchmarks/results/<name>.txt`` (and prints it), so the artifacts
survive pytest's output capture.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.baselines import CorelSystem, EngineSystem, TwoPCSystem
from repro.core import EngineConfig
from repro.net import lan_profile
from repro.obs.metrics import LATENCY_BUCKETS, Histogram
from repro.storage import DiskProfile

N_REPLICAS = 14
CLIENT_COUNTS = [1, 2, 4, 7, 10, 14]
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def paper_disk() -> DiskProfile:
    """Calibrated so one forced write + safe delivery lands near the
    paper's ~11.4 ms single-client latency."""
    return DiskProfile(forced_write_latency=0.0095)


def engine_factory(seed: int = 0, forced_writes: bool = True,
                   observability: Optional[Any] = None,
                   gcs_settings: Optional[Any] = None):
    def build():
        return EngineSystem(
            N_REPLICAS, seed=seed, network_profile=lan_profile(),
            disk_profile=paper_disk(), gcs_settings=gcs_settings,
            engine_config=EngineConfig(
                forced_client_writes=forced_writes),
            observability=observability)
    return build


def latency_summary(latencies: List[float]) -> Dict[str, float]:
    """Bucketed latency digest via the observability Histogram (same
    log-spaced layout the span trackers use), replacing ad-hoc binning
    in benchmark reports."""
    histogram = Histogram(LATENCY_BUCKETS)
    for value in latencies:
        histogram.observe(value)
    return {
        "count": histogram.count,
        "mean_ms": round(histogram.mean * 1e3, 3),
        "p50_ms": round(histogram.quantile(0.50) * 1e3, 3),
        "p95_ms": round(histogram.quantile(0.95) * 1e3, 3),
        "p99_ms": round(histogram.quantile(0.99) * 1e3, 3),
    }


def corel_factory(seed: int = 0):
    def build():
        return CorelSystem(N_REPLICAS, seed=seed,
                           network_profile=lan_profile(),
                           disk_profile=paper_disk())
    return build


def twopc_factory(seed: int = 0):
    def build():
        return TwoPCSystem(N_REPLICAS, seed=seed,
                           network_profile=lan_profile(),
                           disk_profile=paper_disk())
    return build


def write_report(name: str, lines: List[str]) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(text)
    return path
