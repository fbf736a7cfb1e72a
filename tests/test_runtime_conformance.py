"""Cross-runtime conformance: the protocol behaves identically on the
discrete-event simulator and on real asyncio.

The same scenario — boot, commit, partition {1,2}|{3}, commit on both
sides, heal, converge — runs on a :class:`ReplicaCluster` (Simulator +
simulated Network) and on a :class:`LiveCluster` (AsyncioRuntime +
MemoryTransport).  The protocol-level trace must be identical:

* the green action order at every node (the paper's replication
  observable),
* each node's sequence of primary/non-primary milestones after boot,
* each node's installed regular view memberships after boot,
* the final database digest.

Wall-clock timings, message counts, and retransmissions may differ
wildly between the runtimes; the protocol decisions may not.  The
scenario runs under both timing policies of ``GcsSettings``: the
coalescing windows the simulator defaults to, and the turn-end flushing
(``idle_immediate``) every live run uses, with both runtimes on the
same policy.
"""

import asyncio

import pytest

from repro.core import ReplicaCluster
from repro.core.state_machine import EngineState
from repro.gcs import GcsSettings
from repro.runtime import LiveCluster
from repro.storage import DiskProfile

NODES = [1, 2, 3]
MAJORITY = [1, 2]
MINORITY = [3]

# The scenario's expected protocol trace, identical on both runtimes.
EXPECTED_GREEN = [(1, 1), (1, 2), (1, 3),      # committed before the cut
                  (1, 4), (1, 5),              # majority, during the cut
                  (3, 1)]                      # minority red, merged last
EXPECTED_MODES = {1: ["RegPrim", "RegPrim"],   # re-primary after cut, heal
                  2: ["RegPrim", "RegPrim"],
                  3: ["NonPrim", "RegPrim"]}   # minority loses quorum
EXPECTED_VIEWS = {1: [(1, 2), (1, 2, 3)],
                  2: [(1, 2), (1, 2, 3)],
                  3: [(3,), (1, 2, 3)]}

_MILESTONES = (EngineState.REG_PRIM, EngineState.NON_PRIM)


class _Recorder:
    """Collects the protocol-level observables for one cluster."""

    def __init__(self, replicas, log):
        self.greens = {n: [] for n in replicas}
        self.modes = {n: [] for n in replicas}
        self.views = {n: [] for n in replicas}
        for node, replica in replicas.items():
            replica.add_green_listener(
                lambda a, _p, _r, _n=node:
                self.greens[_n].append(tuple(a.action_id)))
            replica.add_state_listener(
                lambda _old, new, _n=node:
                self.modes[_n].append(str(new))
                if new in _MILESTONES else None)
        log.subscribe(self._on_event)

    def _on_event(self, row):
        if row["kind"] == "gcs.install":
            self.views[row["node"]].append(row["detail"]["members"])

    def reset_membership(self):
        """Forget boot-time transitions: startup view formation order is
        timing-dependent (and irrelevant); the scenario's own membership
        changes are the conformance observable."""
        for node in self.modes:
            self.modes[node] = []
            self.views[node] = []

    def trace(self, digests):
        return {"greens": self.greens, "modes": self.modes,
                "views": self.views, "digests": digests}


def _sim_trace(idle_immediate=False):
    cluster = ReplicaCluster(
        n=3, seed=11,
        gcs_settings=GcsSettings(idle_immediate=idle_immediate))
    recorder = _Recorder(cluster.replicas, cluster.tracer)

    def wait(cond, what):
        deadline = cluster.sim.now + 60.0
        while not cond():
            assert cluster.sim.now < deadline, f"sim stalled: {what}"
            cluster.run_for(0.05)

    cluster.start_all()
    wait(lambda: all(r.engine.state == EngineState.REG_PRIM
                     for r in cluster.replicas.values()), "startup")
    recorder.reset_membership()

    for i in range(3):
        cluster.replicas[1].submit(("SET", f"pre-{i}", i))
    wait(lambda: all(len(g) >= 3 for g in recorder.greens.values()),
         "pre-cut commits")

    cluster.partition(MAJORITY, MINORITY)
    wait(lambda: (all(cluster.replicas[n].engine.state
                      == EngineState.REG_PRIM for n in MAJORITY)
                  and cluster.replicas[3].engine.state
                  == EngineState.NON_PRIM), "partition settles")
    cluster.replicas[1].submit(("SET", "maj-0", 0))
    cluster.replicas[1].submit(("SET", "maj-1", 1))
    cluster.replicas[3].submit(("SET", "min-0", 0))
    wait(lambda: all(len(recorder.greens[n]) >= 5 for n in MAJORITY),
         "majority commits")

    cluster.heal()
    wait(lambda: all(len(g) >= 6 for g in recorder.greens.values()),
         "post-heal convergence")
    wait(lambda: all(r.engine.state == EngineState.REG_PRIM
                     for r in cluster.replicas.values()), "re-primary")
    digests = {n: r.database.digest()
               for n, r in cluster.replicas.items()}
    return recorder.trace(digests)


def _live_trace(idle_immediate=False):
    async def scenario():
        cluster = LiveCluster(
            NODES,
            gcs_settings=GcsSettings(
                heartbeat_interval=0.015, failure_timeout=0.150,
                gather_settle=0.040, phase_timeout=0.500,
                nack_timeout=0.010, use_topology_hints=False,
                idle_immediate=idle_immediate),
            disk_profile=DiskProfile(forced_write_latency=0.0002,
                                     async_write_latency=0.00001))
        recorder = _Recorder(cluster.replicas, cluster.tracer)

        async def heard(count, timeout, nodes=NODES):
            # Like the sim side, wait on the recorder's own listener:
            # the green upcall trails the database apply by the CPU
            # service delay, so wait_green alone can return before it.
            await cluster.wait_until(
                lambda: all(len(recorder.greens[n]) >= count
                            for n in nodes),
                timeout, what=f"{count} green upcalls at {nodes}")

        try:
            cluster.start_all()
            await cluster.wait_all_engine_state(EngineState.REG_PRIM,
                                                timeout=15)
            recorder.reset_membership()

            for i in range(3):
                cluster.submit(1, ("SET", f"pre-{i}", i))
            await heard(3, timeout=10)

            cluster.partition(MAJORITY, MINORITY)
            await cluster.wait_all_engine_state(EngineState.REG_PRIM,
                                                timeout=15, nodes=MAJORITY)
            await cluster.wait_all_engine_state(EngineState.NON_PRIM,
                                                timeout=15, nodes=MINORITY)
            cluster.submit(1, ("SET", "maj-0", 0))
            cluster.submit(1, ("SET", "maj-1", 1))
            cluster.submit(3, ("SET", "min-0", 0))
            await heard(5, timeout=10, nodes=MAJORITY)

            cluster.heal()
            await heard(6, timeout=20)
            await cluster.wait_all_engine_state(EngineState.REG_PRIM,
                                                timeout=15)
            digests = {n: r.database.digest()
                       for n, r in cluster.replicas.items()}
            assert cluster.runtime.callback_errors == 0, \
                cluster.runtime.last_callback_error
            return recorder.trace(digests)
        finally:
            cluster.shutdown()

    return asyncio.run(scenario())


@pytest.mark.parametrize("idle_immediate", [False, True])
def test_identical_protocol_trace_on_both_runtimes(idle_immediate):
    sim = _sim_trace(idle_immediate)
    live = _live_trace(idle_immediate)

    # Both runtimes produced the analytically expected trace...
    for trace in (sim, live):
        assert trace["greens"] == {n: EXPECTED_GREEN for n in NODES}
        assert trace["modes"] == EXPECTED_MODES
        assert trace["views"] == EXPECTED_VIEWS
        assert len(set(trace["digests"].values())) == 1

    # ...and therefore agree with each other, digests included: the
    # replicated databases converged to byte-identical state across
    # virtual and wall-clock execution.
    assert sim["greens"] == live["greens"]
    assert sim["modes"] == live["modes"]
    assert sim["views"] == live["views"]
    assert set(sim["digests"].values()) == set(live["digests"].values())
