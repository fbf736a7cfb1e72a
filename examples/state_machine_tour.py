#!/usr/bin/env python
"""Watch the replication state machine work (Figure 4, live).

Runs a cluster through a partition and a merge, then renders the
per-replica state timeline from its event log — RegPrim, the exchange
states, and the primary re-installation are all visible — plus how
long each replica spent in each state.

Run:  python examples/state_machine_tour.py
"""

from repro.core import ReplicaCluster
from repro.tools.timeline import render_timeline, summarize_time_in_state


def main():
    cluster = ReplicaCluster(n=3, seed=21)
    cluster.start_all()
    client = cluster.client(1)
    for i in range(3):
        client.submit(("INC", "work", 1))
    cluster.run_for(1.0)

    print("=== a partition hits: {1} vs {2,3} ===")
    cluster.partition([1], [2, 3])
    cluster.run_for(2.0)
    client2 = cluster.client(2)
    client2.submit(("INC", "work", 1))
    cluster.run_for(1.0)

    print("=== the network heals ===")
    cluster.heal()
    cluster.run_for(2.0)
    cluster.assert_converged()

    print("\nPer-replica state timeline "
          "(every line = one state change):\n")
    changes = list(cluster.tracer.select("engine.state"))
    print(render_timeline(changes))

    print("\nTime in each state (replica 1):")
    totals = summarize_time_in_state(changes, 1, until=cluster.sim.now)
    for state, seconds in sorted(totals.items(),
                                 key=lambda kv: -kv[1]):
        bar = "#" * max(1, int(40 * seconds / cluster.sim.now))
        print(f"  {state:>16}  {seconds:7.3f}s  {bar}")

    print(f"\nfinal database: {cluster.replicas[3].database.state}")
    print("note how the exchange states occupy milliseconds — the "
          "paper's point: end-to-end coordination happens only at "
          "membership changes.")


if __name__ == "__main__":
    main()
