"""The model checker and the cluster share one read-back of an engine
(``engine_record``) and one rule set (``repro.core.invariants``)."""

from conftest import make_cluster

from repro.check.coverage import PORTFOLIO
from repro.check.model import GlobalState, Model, ModelConfig, ModelNode
from repro.core import PrimComponent
from repro.core.invariants import EngineRecord, engine_record


def rule_names(findings):
    return sorted({finding.split(":")[0] for finding in findings})


def test_checker_and_cluster_report_the_same_rules():
    cluster = make_cluster(3)
    cluster.start_all(settle=1.0)
    cluster.client(1).submit(("SET", "k", 1))
    cluster.run_for(1.0)
    # One forged set of records: replica 1, cut off alone, claims the
    # next primary (an unguarded quorum {2, 3}), and replica 2 claims
    # the current index with another attempt (a second install).
    cluster.partition([1], [2, 3])
    prim = cluster.replicas[1].engine.prim_component
    cluster.replicas[1].engine.prim_component = PrimComponent(
        prim.prim_index + 1, 0, (1,))
    cluster.replicas[2].engine.prim_component = PrimComponent(
        prim.prim_index, prim.attempt_index + 1, prim.servers)
    try:
        cluster.assert_single_primary()
    except AssertionError as error:
        from_cluster = rule_names(str(error).split("; "))
    else:
        raise AssertionError("the cluster found nothing")

    records = cluster.engine_records()
    views = sorted({r.engine.conf.view_id
                    for r in cluster.replicas.values()})
    nodes = []
    for node, record in records.items():
        conf = cluster.replicas[node].engine.conf
        nodes.append(ModelNode(
            *record, view=(views.index(conf.view_id),
                           tuple(sorted(conf.members))),
            dirty=False, inbox=()))
    state = GlobalState(
        nodes=tuple(nodes), comps=tuple(cluster.components()),
        down=frozenset(), reports=(), epoch_next=len(views), faults=0,
        crashes=0, actions=0)
    model = Model(ModelConfig(nodes=3))
    assert rule_names(model.check_safety(state)) == from_cluster \
        == ["unique-install", "vulnerable-net"]


def test_engine_record_round_trips_every_model_state():
    (config, depth), = [(config, depth)
                        for label, config, depth in PORTFOLIO
                        if label == "2n-faults"]
    model = Model(config)
    frontier = [model.initial_state()]
    seen = set(frontier)
    for _ in range(depth):
        successors = []
        for state in frontier:
            for event in model.enabled_events(state):
                successor = model.apply_event(state, event)
                if successor not in seen:
                    seen.add(successor)
                    successors.append(successor)
        frontier = successors
    assert len(seen) == 2191  # tests/test_check_mc.py's pinned count
    fields = len(EngineRecord._fields)
    for state in seen:
        for n, node in zip(model.server_ids, state.nodes):
            restored = model.engine(n, node)
            assert engine_record(restored, node.green) == node[:fields]
