"""Property-based tests of dynamic membership under faults.

Random interleavings of joins, leaves, partitions, and workload must
preserve the dynamic theorems (Section 5.2): total order and FIFO with
joins ("or inherited a database state which incorporated the effect"),
and liveness once the final set stabilizes.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import EngineState

from conftest import make_cluster

BASE = [1, 2, 3]

membership_step = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(BASE)),
    st.tuples(st.just("join"), st.sampled_from([4, 5])),
    st.tuples(st.just("leave"), st.sampled_from([2, 3])),
    st.tuples(st.just("partition"), st.none()),
    st.tuples(st.just("heal"), st.none()),
)


@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.lists(membership_step, min_size=1, max_size=8))
def test_membership_churn_preserves_theorems(scenario):
    cluster = make_cluster(3)
    cluster.start_all(settle=1.0)
    joined = set()
    left = set()
    counter = [0]

    for kind, arg in scenario:
        if kind == "submit":
            replica = cluster.replicas.get(arg)
            if replica and replica.running and not replica.engine.exited:
                counter[0] += 1
                replica.submit(("APPEND", "log", counter[0]))
            cluster.run_for(0.1)
        elif kind == "join":
            if arg not in cluster.replicas:
                peers = [n for n in BASE
                         if n not in left and
                         cluster.replicas[n].running]
                if peers:
                    cluster.add_replica(arg, peer=peers[0],
                                        peers=peers)
                    joined.add(arg)
                    cluster.run_for(3.0)
        elif kind == "leave":
            # Keep at least two of the base replicas around.
            if arg not in left and len(left) < 1:
                replica = cluster.replicas[arg]
                if replica.running and not replica.engine.exited:
                    replica.leave()
                    left.add(arg)
                    cluster.run_for(1.5)
        elif kind == "partition":
            alive = [n for n, r in cluster.replicas.items()
                     if cluster.topology.is_alive(n)]
            if len(alive) >= 2:
                cluster.partition(alive[:1], alive[1:])
                cluster.run_for(0.5)
        elif kind == "heal":
            cluster.heal()
            cluster.run_for(0.5)
        cluster.assert_prefix_consistent()
        cluster.assert_single_primary()

    cluster.heal()
    cluster.run_for(6.0)
    cluster.assert_prefix_consistent()
    running = cluster.running_replicas()
    # Liveness: whoever remains converges to one green sequence.
    counts = {r.node: r.database.applied_count for r in running}
    assert len(set(counts.values())) == 1, counts
    # FIFO per creator holds at every survivor, allowing for inherited
    # prefixes (a joiner's log starts where its snapshot ended).
    for replica in running:
        per_creator = {}
        for action_id in replica.database.applied_log:
            creator = action_id.server_id
            if creator in per_creator:
                assert action_id.index == per_creator[creator] + 1
            per_creator[creator] = action_id.index
