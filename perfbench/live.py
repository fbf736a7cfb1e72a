"""The four live workloads: three replicas on real loopback UDP sockets
in one process and one event loop (``repro.runtime.udp_cluster``).

Every argument is the library default except ``apply_cpu=0``: the
default 0.4 ms is a modelled service delay that pins throughput at
exactly 2,500 actions/s whatever the code does (see README, traps).
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core  # noqa: F401  (before repro.runtime: see README, traps)
from repro.core import EngineConfig, EngineState
from repro.runtime import LiveCluster, udp_cluster
from repro.semantics.service import ReplicatedService

from harness import (DRAIN_LIMIT_S, SETUP_REPEATS, WARMUP_S, ClosedLoopWriter,
                     Meter, OpLog, PacedWriter, Params, Window,
                     counter_deltas, key_counter, latencies_ms, peak_rss_mb,
                     read_counters, submit_at)

NODES = (1, 2, 3)
clock = time.perf_counter


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
class ReadWriteClient(ClosedLoopWriter):
    """One update, then ``reads_per_write`` query-only reads of another
    client's keys, answered once this server's own writes are applied
    (Section 6's fast path: no action is generated or ordered)."""

    def __init__(self, service: ReplicatedService, runtime: Any,
                 next_update: Callable[[], Tuple],
                 next_read: Callable[[], Tuple], reads_per_write: int,
                 valid: Callable[[Any], bool], writes: OpLog, reads: OpLog,
                 params: Params) -> None:
        super().__init__(service.update, next_update, writes, params, clock)
        self._service = service
        self._runtime = runtime
        self._next_read = next_read
        self._reads_per_write = reads_per_write
        self._valid = valid
        self._reads = reads
        self._read_done = params.client_callback(self._on_read)
        self._read_next = params.client_callback(self._issue_read)
        self._reads_left = 0
        self._read_token = 0
        self._read_open: Optional[int] = None
        self._read_began = 0.0
        self._calling = False

    def after_write(self) -> None:
        self._reads_left = self._reads_per_write
        self._issue_read()

    def _issue_read(self) -> None:
        if not self.running:
            return
        self._read_token += 1
        token = self._read_open = self._read_token
        self._read_began = clock()
        self._calling = True
        self._service.query_after_my_writes(
            self._next_read(),
            lambda result: self._read_done(token, result))
        self._calling = False

    def _on_read(self, token: int, result: Any) -> None:
        if token != self._read_open:
            self._reads.duplicates += 1
            return
        self._read_open = None
        self._reads.done.append((self._read_began, clock()))
        if not self._valid(result):
            self._reads.invalid += 1
        self._reads_left -= 1
        step = self._read_next if self._reads_left else self.inject
        if not self.running:
            return
        if self._calling:
            # Answered inside our own call: hand the successor to the
            # loop so a run of ready reads never recurses.
            self._runtime.post(0.0, step)
        else:
            step()

    def unfinished_reads(self) -> List[float]:
        return [] if self._read_open is None else [self._read_began]

    @property
    def outstanding(self) -> int:
        return len(self.unfinished()) + len(self.unfinished_reads())


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class LiveWorkload:
    """One live workload: what differs between the four."""

    name = ""

    def __init__(self, params: Params) -> None:
        self.params = params
        self.rng = random.Random(params.seed)
        self.writes = OpLog()
        self.reads = OpLog()
        self.clients: List[Any] = []

    def engine_config(self) -> EngineConfig:
        return EngineConfig(apply_cpu=0.0)

    def start_clients(self, cluster: LiveCluster) -> None:
        raise NotImplementedError

    async def hold_window(self, cluster: LiveCluster,
                          seconds: float) -> None:
        await asyncio.sleep(seconds)

    def finish(self, start: float, end: float, window: Window) -> None:
        """Add workload-specific numbers; raise AssertionError if an
        output is wrong."""

    # -- shared ----------------------------------------------------------
    def closed_loop_writers(self, cluster: LiveCluster,
                            per_node: int, nodes=NODES) -> None:
        cid = 0
        for node in nodes:
            submit = submit_at(cluster.replicas[node])
            for _ in range(per_node):
                cid += 1
                self.clients.append(ClosedLoopWriter(
                    submit, key_counter(cid), self.writes, self.params,
                    clock))
        for client in self.clients:
            client.start()

    def outstanding(self) -> int:
        return sum(client.outstanding for client in self.clients)

    def writers(self) -> List[Any]:
        """The generators whose updates ``self.writes`` logs."""
        return self.clients


class Saturated(LiveWorkload):
    """48 closed-loop writers: the processor is the bottleneck, so the
    per-message cost of every layer on the path shows."""

    name = "live_udp_saturated"

    def start_clients(self, cluster: LiveCluster) -> None:
        self.closed_loop_writers(cluster, per_node=16)


class SingleClient(LiveWorkload):
    """One closed-loop writer: the paper's latency experiment.  Timers
    and one forced write are the critical path, not the processor."""

    name = "live_udp_single_client"

    def start_clients(self, cluster: LiveCluster) -> None:
        self.closed_loop_writers(cluster, per_node=1, nodes=(1,))


class MixedReadWrite(LiveWorkload):
    """12 clients through ``ReplicatedService``: one 1 KiB update, then
    three read-your-writes queries of another client's key."""

    name = "live_udp_mixed_rw"
    VALUE_BYTES = 1024
    KEYS_PER_CLIENT = 256
    CLIENTS_PER_NODE = 4
    READS_PER_WRITE = 3

    def engine_config(self) -> EngineConfig:
        # The declared action size feeds the GCS's size accounting;
        # raised so it matches what the codec really frames.
        return EngineConfig(apply_cpu=0.0,
                            action_size=200 + self.VALUE_BYTES)

    def start_clients(self, cluster: LiveCluster) -> None:
        rng = self.rng
        values = ["%0*x" % (self.VALUE_BYTES,
                            rng.getrandbits(4 * self.VALUE_BYTES))
                  for _ in range(64)]
        known = set(values)
        total = self.CLIENTS_PER_NODE * len(NODES)

        def valid(result: Any) -> bool:
            return result is None or result in known

        def updates(cid: int) -> Callable[[], Tuple]:
            return lambda: ("SET",
                            f"c{cid}k{rng.randrange(self.KEYS_PER_CLIENT)}",
                            values[rng.randrange(len(values))])

        def reads(cid: int) -> Callable[[], Tuple]:
            def next_read() -> Tuple:
                other = rng.randrange(1, total)
                other = other + 1 if other >= cid else other
                return ("GET",
                        f"c{other}k{rng.randrange(self.KEYS_PER_CLIENT)}")
            return next_read

        cid = 0
        for node in NODES:
            service = ReplicatedService(cluster.replicas[node])
            for _ in range(self.CLIENTS_PER_NODE):
                cid += 1
                self.clients.append(ReadWriteClient(
                    service, cluster.runtime, updates(cid), reads(cid),
                    self.READS_PER_WRITE, valid, self.writes, self.reads,
                    self.params))
        for client in self.clients:
            client.start()

    def finish(self, start: float, end: float, window: Window) -> None:
        done = self.reads.window(start, end)
        window.samples["read_ms"] = latencies_ms(done)
        window.extra["reads"] = len(done)
        lost = sum(1 for client in self.clients
                   for began in client.unfinished_reads()
                   if start <= began < end)
        window.attempted += self.reads.began_in(start, end) + lost
        window.failed += self.reads.duplicates + self.reads.invalid + lost


class PartitionHeal(LiveWorkload):
    """Open-loop writers on both sides of a repeating partition: the
    only place the paper's algorithm pays end-to-end rounds."""

    name = "live_udp_partition_heal"
    MAJORITY_RATE = 200.0
    MINORITY_RATE = 50.0
    PHASE_S = 1.0
    JITTER_S = 0.050

    def __init__(self, params: Params) -> None:
        super().__init__(params)
        self.minority_writes = OpLog()
        self.cycles: List[Tuple[float, float, float]] = []
        self.catchup_ms: List[float] = []

    def start_clients(self, cluster: LiveCluster) -> None:
        later = cluster.runtime.loop.call_later
        self.majority = PacedWriter(
            submit_at(cluster.replicas[1]), key_counter(1),
            self.MAJORITY_RATE, self.writes, self.params, clock, later)
        self.minority = PacedWriter(
            submit_at(cluster.replicas[3]), key_counter(3),
            self.MINORITY_RATE, self.minority_writes, self.params, clock,
            later)
        self.clients = [self.majority, self.minority]
        for client in self.clients:
            client.start()

    async def hold_window(self, cluster: LiveCluster,
                          seconds: float) -> None:
        cycles = max(1, round(seconds / (2 * self.PHASE_S)))
        origin = clock()
        behind = cluster.replicas[3]
        target: List[Optional[int]] = [None]
        healed_at = [0.0]

        def caught_up(*_ignored: Any) -> None:
            if target[0] is not None \
                    and behind.engine.state is EngineState.REG_PRIM \
                    and len(cluster.green_order(3)) >= target[0]:
                self.catchup_ms.append((clock() - healed_at[0]) * 1e3)
                target[0] = None
        behind.add_green_listener(caught_up)
        behind.add_state_listener(caught_up)

        async def at(offset: float) -> None:
            await asyncio.sleep(max(0.0, origin + offset - clock()))

        for cycle in range(cycles):
            base = 2 * self.PHASE_S * cycle
            jitter = self.rng.uniform
            await at(base + self.JITTER_S
                     + jitter(-self.JITTER_S, self.JITTER_S))
            cluster.partition([1, 2], [3])
            cut = clock()
            await at(base + self.PHASE_S
                     + jitter(-self.JITTER_S, self.JITTER_S))
            target[0] = len(cluster.green_order(1))
            cluster.heal()
            healed_at[0] = healed = clock()
            await at(base + 2 * self.PHASE_S)
            self.cycles.append((cut, healed, clock()))
        await at(seconds)

    def finish(self, start: float, end: float, window: Window) -> None:
        partition_gaps, merge_gaps = [], []
        for cut, healed, closed in self.cycles:
            cut_ops = [done - due for due, done in self.writes.done
                       if cut <= due < healed]
            merged_ops = [done - due for due, done in self.writes.done
                          if healed <= due < closed]
            if cut_ops:
                partition_gaps.append(max(cut_ops) * 1e3)
            if merged_ops:
                merge_gaps.append(max(merged_ops) * 1e3)
            early = [(due, done) for due, done in self.minority_writes.done
                     if cut <= due < healed and done < healed]
            if early:
                raise AssertionError(
                    f"{len(early)} minority actions due while partitioned "
                    f"completed before heal(): {early[:3]}")
        if len(self.catchup_ms) != len(self.cycles):
            raise AssertionError(
                f"replica 3 caught up {len(self.catchup_ms)} times in "
                f"{len(self.cycles)} cycles")
        window.samples["partition_gap_ms"] = partition_gaps
        window.samples["merge_gap_ms"] = merge_gaps
        window.samples["catchup_ms"] = self.catchup_ms
        window.samples["generator_lag_ms"] = sorted(
            lag for writer in (self.majority, self.minority)
            for due, lag in writer.lag_ms if start <= due < end)
        window.extra["cycles"] = len(self.cycles)
        lost = sum(1 for due in self.minority.unfinished()
                   if start <= due < end)
        window.attempted += self.minority_writes.began_in(start, end) + lost
        window.failed += self.minority_writes.duplicates + lost

    def writers(self) -> List[Any]:
        return [self.majority]


WORKLOADS = {cls.name: cls for cls in (Saturated, SingleClient,
                                       MixedReadWrite, PartitionHeal)}


# ----------------------------------------------------------------------
# the session every live workload runs
# ----------------------------------------------------------------------
async def _until(predicate: Callable[[], bool], timeout: float) -> bool:
    deadline = clock() + timeout
    while not predicate():
        if clock() >= deadline:
            return False
        await asyncio.sleep(0.001)
    return True


async def _set_up(workload: LiveWorkload) -> LiveCluster:
    """Sockets, replicas, and the first primary component."""
    cluster = udp_cluster(list(NODES),
                          engine_config=workload.engine_config())
    cluster.start_all()
    if not await _until(
            lambda: all(r.engine.state is EngineState.REG_PRIM
                        for r in cluster.replicas.values()), 10.0):
        raise AssertionError(f"no primary component: {cluster.states()}")
    return cluster


def _watch_exchanges(cluster: LiveCluster,
                     samples: List[float]) -> None:
    """Exchange length per replica: entering ExchangeStates (the
    regular configuration upcall) to RegPrim."""
    for replica in cluster.replicas.values():
        began: List[Optional[float]] = [None]

        def on_state(_old: EngineState, new: EngineState,
                     began: List[Optional[float]] = began) -> None:
            if new is EngineState.EXCHANGE_STATES and began[0] is None:
                began[0] = clock()
            elif new is EngineState.REG_PRIM and began[0] is not None:
                samples.append((clock() - began[0]) * 1e3)
                began[0] = None
        replica.add_state_listener(on_state)


def _watch_red_to_green(cluster: LiveCluster, samples: List[float]) -> None:
    for replica in cluster.replicas.values():
        red_at: Dict[Any, float] = {}
        replica.add_red_listener(
            lambda action, red_at=red_at:
            red_at.setdefault(action.action_id, clock()))
        replica.add_green_listener(
            lambda action, _pos, _res, red_at=red_at: samples.append(
                (clock() - red_at.pop(action.action_id, clock())) * 1e3))


async def _session(params: Params, setups: int) -> Window:
    workload = WORKLOADS[params.workload](params)
    recorder = params.recorder
    setup_s: List[float] = []
    cluster: Optional[LiveCluster] = None
    try:
        for _ in range(setups):
            if cluster is not None:
                cluster.shutdown()
            began = clock()
            cluster = await _set_up(workload)
            setup_s.append(clock() - began)
        assert cluster is not None
        exchanges: List[float] = []
        red_to_green: List[float] = []
        _watch_exchanges(cluster, exchanges)
        if recorder is not None:
            _watch_red_to_green(cluster, red_to_green)

        def counters() -> Dict[str, float]:
            return read_counters(cluster.replicas.values(),
                                 cluster.transport, cluster.runtime,
                                 cluster.tracer)

        def membership_changes() -> Dict[Any, List[float]]:
            """Steady state lost -> primary installed, per node, as the
            obs span trackers time it (seconds)."""
            return {node: tracker.membership_durations()
                    for node, tracker in cluster.obs.trackers.items()}

        workload.start_clients(cluster)
        await asyncio.sleep(WARMUP_S)
        del exchanges[:], red_to_green[:]
        changes_before = {node: len(durations) for node, durations
                          in membership_changes().items()}
        before = counters()
        meter = Meter(recorder)
        start = clock()
        await workload.hold_window(cluster, params.seconds)
        end = clock()
        wall, cpu, gen2 = meter.stop()
        after = counters()
        rss = peak_rss_mb()

        for client in workload.clients:
            client.running = False
        await _until(lambda: workload.outstanding() == 0, DRAIN_LIMIT_S)
        await _until(
            lambda: len(set(cluster.green_counts().values())) == 1,
            DRAIN_LIMIT_S)
        cluster.assert_converged()

        done = workload.writes.window(start, end)
        lost = sum(1 for writer in workload.writers()
                   for began in writer.unfinished()
                   if start <= began < end)
        middle = (start + end) / 2
        window = Window(
            wall_s=wall, cpu_s=cpu, actions=len(done),
            attempted=workload.writes.began_in(start, end) + lost,
            failed=workload.writes.duplicates + lost,
            write_ms=latencies_ms(done),
            counters=counter_deltas(before, after),
            first_half_actions=sum(1 for op in done if op[1] < middle),
            setup_s=setup_s, peak_rss_mb=rss, gc_gen2=gen2)
        window.samples["exchange_ms"] = exchanges
        window.samples["membership_change_ms"] = [
            d * 1e3 for node, durations in membership_changes().items()
            for d in durations[changes_before.get(node, 0):]]
        window.samples["red_to_green_ms"] = red_to_green
        workload.finish(start, end, window)
        return window
    finally:
        if cluster is not None:
            cluster.shutdown()


def run(params: Params, setups: int = SETUP_REPEATS) -> Window:
    return asyncio.run(_session(params, setups))
