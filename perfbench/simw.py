"""The two simulator workloads.  They run a fixed amount of virtual
time sized to take about ``--seconds`` of wall time at this PR's
baseline, so the same work is timed on every commit; latencies are in
virtual time and exact at a seed.

Both bypass ``runtime.asyncio_runtime``, ``runtime.transport`` and
``net.codec``: a change to those must predict no move here.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import repro.core  # noqa: F401  (before repro.runtime: see README, traps)
from repro.baselines import EngineSystem
from repro.bench import spread_clients
from repro.core import EngineConfig, ReplicaCluster
from repro.net import lan_profile
from repro.storage import DiskProfile

from harness import (SETUP_REPEATS, ClosedLoopWriter, Meter, OpLog,
                     PacedWriter, Params, Window, carry_engine_stats,
                     counter_deltas, key_counter, latencies_ms, peak_rss_mb,
                     read_counters, submit_at)

clock = time.perf_counter

# ----------------------------------------------------------------------
# sim_fig5a
# ----------------------------------------------------------------------
FIG5A_REPLICAS = 14
FIG5A_CLIENTS = [1, 2, 4, 7, 10, 14]
#: Virtual seconds measured per sweep point for each ``--seconds``; the
#: warm-up is a third of it.  At the default 10 s this is the pinned
#: Figure 5(a) configuration: 3 s + 1 s warm-up per point.
FIG5A_VIRTUAL_PER_SECOND = 0.3
#: Seed 0, 3 s + 1 s: the determinism pin every build must reproduce.
FIG5A_PIN_EVENTS = 3_362_977
FIG5A_PIN_SERIES = [80.0, 160.0, 318.0, 555.67, 791.67, 1105.67]


def _fig5a_system(seed: int) -> EngineSystem:
    # The paper's set-up as benchmarks/bench_common.py has it: 14
    # replicas, 100 Mbit LAN, a disk calibrated to ~11.4 ms latency.
    return EngineSystem(
        FIG5A_REPLICAS, seed=seed, network_profile=lan_profile(),
        disk_profile=DiskProfile(forced_write_latency=0.0095),
        engine_config=EngineConfig(forced_client_writes=True))


def _fig5a_point(system: EngineSystem, clients: int, duration: float,
                 warmup: float) -> Tuple[List[float], Dict[str, float]]:
    """One sweep point, step for step what ``repro.bench.run_closed_loop``
    does (the pin below holds the two together), but keeping the raw
    latencies: ``RunResult`` has no 90th percentile."""
    system.start(settle=2.0)
    loop = spread_clients(system, clients)
    for client in loop:
        client.start()
    cluster = system.cluster

    def counters() -> Dict[str, float]:
        return read_counters(cluster.replicas.values(), cluster.network,
                             cluster.sim, cluster.tracer)

    system.sim.run(until=system.sim.now + warmup)
    for client in loop:
        client.latencies.clear()
    before = counters()
    system.sim.run(until=system.sim.now + duration)
    after = counters()
    latencies: List[float] = []
    for client in loop:
        client.stop()
        latencies.extend(client.latencies)
    return latencies, counter_deltas(before, after)


def run_fig5a(params: Params, setups: int = SETUP_REPEATS) -> Window:
    setup_s = []
    for _ in range(setups):
        began = clock()
        _fig5a_system(params.seed).start(settle=2.0)
        setup_s.append(clock() - began)

    duration = FIG5A_VIRTUAL_PER_SECOND * params.seconds
    meter = Meter(params.recorder)
    systems = [_fig5a_system(params.seed) for _ in FIG5A_CLIENTS]
    points = [_fig5a_point(system, clients, duration, duration / 3)
              for system, clients in zip(systems, FIG5A_CLIENTS)]
    wall, cpu, gen2 = meter.stop()
    rss = peak_rss_mb()
    events = sum(s.sim.events_processed for s in systems)
    series = [round(len(latencies) / duration, 2) for latencies, _ in points]

    pinned = (params.seed == 0 and not params.traced
              and abs(duration - 3.0) < 1e-9)
    if pinned and (events != FIG5A_PIN_EVENTS
                   or series != FIG5A_PIN_SERIES):
        raise AssertionError(
            f"fig5a pin broken: {events} events, series {series}; expected "
            f"{FIG5A_PIN_EVENTS}, {FIG5A_PIN_SERIES}")
    for system in systems:
        # Each point stops mid-flight; let it drain, then every replica
        # must hold the same green order and database.
        system.cluster.run_for(1.0)
        system.cluster.assert_converged()

    actions = sum(len(latencies) for latencies, _ in points)
    counters: Dict[str, float] = {}
    for _, deltas in points:
        for name, value in deltas.items():
            counters[name] = max(counters.get(name, 0.0), value) \
                if name == "durable_records_max" \
                else counters.get(name, 0.0) + value
    # The pinned count: every event of the sweep, set-up and warm-up too.
    counters["events"] = events
    counters["peak_heap"] = max(s.sim.peak_heap for s in systems)
    # Latency at the 14-client point, the paper's Figure 5(a) setting.
    window = Window(
        wall_s=wall, cpu_s=cpu, actions=actions, attempted=actions,
        failed=0, write_ms=sorted(v * 1e3 for v in points[-1][0]),
        counters=counters, setup_s=setup_s, peak_rss_mb=rss, gc_gen2=gen2)
    window.extra["virtual_actions_per_s"] = series[-1]
    window.extra["pinned"] = 1.0 if pinned else 0.0
    return window


# ----------------------------------------------------------------------
# sim_fault_churn
# ----------------------------------------------------------------------
CHURN_REPLICAS = 5
#: partition -> heal -> crash(5) -> recover(5) cycles per ``--seconds``,
#: one virtual second per step (25 cycles at the default 10 s).
CHURN_CYCLES_PER_SECOND = 2.5
CHURN_SETTLE = 3.0
CHURN_PACED_RATE = 50.0


def _churn_cluster(seed: int) -> ReplicaCluster:
    cluster = ReplicaCluster(CHURN_REPLICAS, seed=seed)
    cluster.start_all()
    return cluster


def run_fault_churn(params: Params, setups: int = SETUP_REPEATS) -> Window:
    setup_s = []
    cluster: Optional[ReplicaCluster] = None
    for _ in range(setups):
        began = clock()
        cluster = _churn_cluster(params.seed)
        setup_s.append(clock() - began)
    assert cluster is not None
    rng = random.Random(params.seed)
    cycles = max(2, round(CHURN_CYCLES_PER_SECOND * params.seconds))

    log = OpLog(keep_ids=True)
    acked = log.acknowledged
    assert acked is not None
    must_survive: Set[Any] = set()
    carried: Dict[str, float] = {}
    sim = cluster.sim

    def now() -> float:
        return sim.now
    writers: List[Any] = [
        ClosedLoopWriter(submit_at(cluster.replicas[node]),
                         key_counter(cid), log, params, now)
        for cid, node in enumerate((1, 1, 2, 2, 3, 3), start=1)]
    writers.append(PacedWriter(submit_at(cluster.replicas[4]),
                               key_counter(7), CHURN_PACED_RATE, log,
                               params, now, sim.post))

    def counters() -> Dict[str, float]:
        return read_counters(cluster.replicas.values(), cluster.network,
                             cluster.sim, cluster.tracer)

    before = counters()
    events_before = sim.events_processed
    virtual_start = sim.now
    meter = Meter(params.recorder)
    for writer in writers:
        writer.start()
    for _ in range(cycles):
        # Fault offsets move by up to 50 ms with the seed, so no run
        # depends on a fault landing on a protocol timer's edge.
        cluster.partition([1, 2, 3], [4, 5])
        cluster.run_for(1.0 + rng.uniform(-0.05, 0.05))
        cluster.heal()
        cluster.run_for(1.0 + rng.uniform(-0.05, 0.05))
        must_survive |= acked
        carry_engine_stats(carried, cluster.replicas[5])
        cluster.crash(5)
        cluster.run_for(1.0 + rng.uniform(-0.05, 0.05))
        cluster.recover(5)
        cluster.run_for(1.0 + rng.uniform(-0.05, 0.05))
    for writer in writers:
        writer.running = False
    cluster.run_for(CHURN_SETTLE)
    wall, cpu, gen2 = meter.stop()
    rss = peak_rss_mb()
    after = counters()

    # Outputs: one green order and one digest at all five replicas, and
    # nothing acknowledged before a crash missing at the recovered node.
    if len(cluster.running_replicas()) != CHURN_REPLICAS:
        raise AssertionError(f"replicas down at the end: {cluster.states()}")
    cluster.assert_converged()
    recovered = set(cluster.replicas[5].database.applied_log)
    lost = must_survive - recovered
    if lost:
        raise AssertionError(
            f"{len(lost)} actions acknowledged before crash(5) are missing "
            f"at replica 5 after recovery: {sorted(lost)[:3]}")

    unfinished = sum(writer.outstanding for writer in writers)
    window = Window(
        wall_s=wall, cpu_s=cpu, actions=len(log.done),
        attempted=len(log.done) + unfinished,
        failed=log.duplicates + unfinished,
        write_ms=latencies_ms(log.done),
        counters=counter_deltas(before, after, carried),
        setup_s=setup_s, peak_rss_mb=rss, gc_gen2=gen2)
    window.counters["events"] = sim.events_processed - events_before
    window.counters["peak_heap"] = sim.peak_heap
    window.extra["virtual_actions_per_s"] = \
        len(log.done) / (sim.now - virtual_start)
    window.extra["cycles"] = cycles
    return window


WORKLOADS: Dict[str, Callable[..., Window]] = {
    "sim_fig5a": run_fig5a,
    "sim_fault_churn": run_fault_churn,
}


def run(params: Params, setups: int = SETUP_REPEATS) -> Window:
    return WORKLOADS[params.workload](params, setups)
