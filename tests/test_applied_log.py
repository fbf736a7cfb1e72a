"""The packed applied-id log is a drop-in for ``list[ActionId]``, and
``applied_cut`` rebuilds the red cut the O(history) scan used to."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Action, ActionId, AppliedLog, Database

from conftest import make_cluster

U32 = 2 ** 32 - 1
ids = st.builds(ActionId, st.integers(0, U32), st.integers(0, U32))
# Mostly a small id space, so membership tests hit as well as miss.
small_ids = st.builds(ActionId, st.integers(1, 4), st.integers(1, 6))
ops = st.lists(st.tuples(st.sampled_from(["append", "set"]),
                         st.one_of(ids, small_ids),
                         st.integers(0, 10 ** 6)),
               max_size=60)


@settings(max_examples=150, deadline=None)
@given(ops, st.data())
def test_reads_as_a_list_of_action_ids(script, data):
    log, model = AppliedLog(), []
    for op, action_id, where in script:
        if op == "set" and model:
            log[where % len(model)] = model[where % len(model)] = action_id
        else:
            log.append(action_id)
            model.append(action_id)

    assert len(log) == len(model)
    assert list(log) == model
    assert all(type(entry) is ActionId for entry in log)
    assert log == model and model == log
    assert log == AppliedLog(model) == AppliedLog(log)
    assert log != model + [ActionId(1, 1)]
    if model:
        assert log != model[:-1]
    piece = data.draw(st.slices(len(model)))
    assert log[piece] == model[piece]
    for position in range(-len(model), len(model)):
        assert log[position] == model[position]
        assert log[position].server_id == model[position].server_id
    with pytest.raises(IndexError):
        log[len(model)]
    probe = data.draw(small_ids)
    assert (probe in log) == (probe in model)
    assert all(entry in log for entry in model)


@settings(max_examples=50, deadline=None)
@given(st.lists(small_ids, max_size=40))
def test_survives_snapshot_restore_and_pickle(applied):
    source = Database()
    for action_id in applied:
        source.apply(Action(action_id=action_id))
    snapshot = source.snapshot()

    copy = Database()
    copy.restore(pickle.loads(pickle.dumps(snapshot)))
    assert copy.applied_log == source.applied_log == applied
    assert copy.applied_cut == source.applied_cut
    assert copy.applied_count == len(applied)

    # Three independent buffers: appending to one moves no other.
    copy.apply(Action(action_id=ActionId(9, 1)))
    assert copy.applied_log == applied + [ActionId(9, 1)]
    assert copy.applied_cut[9] == 1
    assert snapshot["applied_log"] == source.applied_log == applied
    assert 9 not in snapshot["applied_cut"]


def test_pickles_at_eight_bytes_per_entry():
    empty = len(pickle.dumps(AppliedLog()))
    for count in (1, 1000, 50_000):
        log = AppliedLog(ActionId(1 + i % 3, 1 + i // 3)
                         for i in range(count))
        blob = pickle.dumps(log)
        assert len(blob) <= 8 * count + empty + 16
        assert pickle.loads(blob) == log


@pytest.mark.parametrize("server_id,index", [
    (2 ** 32, 1), (1, 2 ** 32), (-1, 1), (1, -1), (2 ** 70, 2 ** 70)])
def test_rejects_ids_outside_32_bits(server_id, index):
    bad = ActionId(server_id, index)
    log = AppliedLog([ActionId(1, 1)])
    with pytest.raises(ValueError):
        log.append(bad)
    with pytest.raises(ValueError):
        log[0] = bad
    with pytest.raises(ValueError):
        AppliedLog([bad])
    assert bad not in log
    database = Database()
    with pytest.raises(ValueError):
        database.apply(Action(action_id=bad, update=("SET", "k", 1)))
    assert database.applied_count == 0 and database.state == {}
    assert list(log) == [ActionId(1, 1)]


def _full_scan_red_cut(engine):
    """The O(history) rebuild that ``ActionQueue.cover`` replaced,
    kept here as the reference."""
    cut = {server: 0 for server in engine.queue.red_cut}
    for action_id in engine.database.applied_log:
        if action_id.server_id in cut:
            cut[action_id.server_id] = max(cut[action_id.server_id],
                                           action_id.index)
    return cut


def test_recovery_from_a_compacted_log_rebuilds_log_and_cuts():
    cluster = make_cluster(4)
    cluster.start_all(settle=1.0)
    clients = {node: cluster.client(node) for node in (1, 2, 3, 4)}
    for i in range(5):
        for client in clients.values():
            client.submit(("INC", "n", 1))
    cluster.run_for(1.0)
    # A departed creator stays in the applied history but must not be
    # resurrected into the recovered cuts.
    cluster.replicas[4].leave()
    cluster.run_for(1.0)
    for i in range(3):
        clients[1].submit(("INC", "n", 1))
    cluster.run_for(0.5)

    victim = cluster.replicas[3]
    victim.engine.checkpoint()
    victim.engine.compact_log()
    cluster.run_for(0.2)
    for i in range(4):          # green records after the snapshot
        clients[2].submit(("INC", "n", 1))
    cluster.run_for(0.5)
    victim.engine.checkpoint()
    cluster.run_for(0.2)

    cluster.crash(3)
    cluster.run_for(0.5)
    cluster.recover(3)
    engine = victim.engine
    assert 4 not in engine.queue.red_cut
    assert engine.queue.red_cut == _full_scan_red_cut(engine)
    assert victim.database.applied_cut[4] == 6

    cluster.run_for(3.0)
    cluster.assert_converged()
    untouched = cluster.replicas[1].database
    assert len(untouched.applied_log) == 28
    assert victim.database.applied_log == untouched.applied_log
    assert victim.database.applied_cut == untouched.applied_cut
    assert victim.engine.queue.red_cut \
        == _full_scan_red_cut(victim.engine) \
        == cluster.replicas[1].engine.queue.red_cut
