"""Soak tests: long mixed-workload runs with rolling faults.

Deterministic seeds drive tens of simulated seconds of continuous
client load, periodic partitions, crashes, recoveries, a join and a
leave — then everything must converge and the books must balance
(every completion observed exactly once, totals correct).
"""

import pytest

from repro.check.fuzz import random_fault_schedule

from conftest import make_cluster


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_soak_under_random_faults(seed):
    cluster = make_cluster(4, seed=seed)
    cluster.start_all(settle=1.0)
    rng = cluster.streams.stream("soak")
    schedule = random_fault_schedule([1, 2, 3, 4], rng, horizon=12.0,
                                     rate=0.6, allow_crashes=False)

    # Schedule steps relative to now (the schedule starts at t=0).
    base = cluster.sim.now
    for when, op, arg in schedule:
        if op == "partition":
            cluster.sim.schedule_at(base + when, cluster.partition, *arg)
        else:
            cluster.sim.schedule_at(base + when, cluster.heal)

    # Continuous closed-loop clients on every node.
    clients = {n: cluster.client(n) for n in (1, 2, 3, 4)}
    stop_at = cluster.sim.now + 12.0

    def pump(node):
        def again(_a=None, _p=None, _r=None):
            if cluster.sim.now < stop_at and \
                    cluster.replicas[node].running:
                clients[node].submit(("INC", f"n{node}", 1),
                                     on_complete=again)
        again()

    for node in clients:
        pump(node)

    cluster.run_for(13.0)
    cluster.heal()
    cluster.run_for(6.0)
    cluster.assert_converged()

    # The books balance: the counter for each node equals the number
    # of that node's completed increments (exactly-once application of
    # everything that was reported complete; at-least: completions are
    # a lower bound since in-flight actions may commit after we stop
    # counting).
    state = cluster.replicas[1].database.state
    for node, client in clients.items():
        applied = state.get(f"n{node}", 0)
        assert applied >= client.completed
        assert client.completed > 0, f"client {node} starved"


def test_soak_with_crashes_and_membership():
    cluster = make_cluster(4, seed=9)
    cluster.start_all(settle=1.0)
    client = cluster.client(1)
    busy = [True]

    def again(_a=None, _p=None, _r=None):
        if busy[0]:
            client.submit(("INC", "total", 1), on_complete=again)
    again()

    cluster.run_for(2.0)
    cluster.crash(4)
    cluster.run_for(2.0)
    cluster.recover(4)
    cluster.run_for(2.0)
    cluster.add_replica(5, peer=2)
    cluster.run_for(5.0)
    cluster.replicas[3].leave()
    cluster.run_for(2.0)
    # Node 3 left the replicated system but still exists on the net.
    cluster.partition([1, 2, 3], [4, 5])
    cluster.run_for(2.0)
    cluster.heal()
    cluster.run_for(2.0)
    busy[0] = False
    cluster.run_for(3.0)

    cluster.assert_converged()
    assert client.completed > 100
    state = cluster.replicas[5].database.state
    assert state["total"] >= client.completed
    servers = cluster.replicas[1].engine.queue.servers
    assert servers == [1, 2, 4, 5]
