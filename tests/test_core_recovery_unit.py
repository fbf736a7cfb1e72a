"""Unit tests of the recovery reconstruction (A.13) against synthetic
stable storage, without a network in the loop."""

import pytest

from repro.core import (EngineConfig, PrimComponent, ReplicationEngine,
                        Vulnerable, Yellow, recover_engine)
from repro.core.state_machine import EngineState
from repro.db import Action, ActionId, Database
from repro.gcs import GroupChannel
from repro.sim import Simulator
from repro.storage import DiskProfile, SimulatedDisk, StableStore, \
    WriteAheadLog

from engine_harness import FakeChannel


def make_engine(sim, store):
    return ReplicationEngine(sim, 1, FakeChannel(), store, Database(),
                             [1], EngineConfig())


def make_store(sim):
    disk = SimulatedDisk(sim, 1, DiskProfile(forced_write_latency=1e-4))
    return StableStore(WriteAheadLog(disk))


def action(server, index, update=None):
    return Action(action_id=ActionId(server, index), update=update)


def seed_store(sim, store, greens=(), reds=(), ongoing=(),
               records=None):
    """Journal ``greens`` in green order (a green's position is its
    place in the journal), then the rest, and sync."""
    for act in greens:
        store.wal.append("green", act, forced=False)
    for act in ongoing:
        store.wal.append("ongoing", act, forced=False)
    view = dict(records or {})
    view.setdefault("servers", [1, 2, 3])
    view["red_actions"] = list(reds)
    for key, value in view.items():
        store.put(key, value)
    store.sync()
    sim.run()


def test_recovery_replays_green_prefix():
    sim = Simulator()
    store = make_store(sim)
    greens = [action(2, 1, ("SET", "a", 1)),
              action(3, 1, ("SET", "b", 2)),
              action(2, 2, ("SET", "a", 3))]
    seed_store(sim, store, greens=greens)
    engine = make_engine(sim, store)
    recover_engine(engine)
    assert engine.queue.green_count == 3
    assert engine.database.state == {"a": 3, "b": 2}
    assert engine.database.applied_log == [g.action_id for g in greens]
    assert engine.state is EngineState.NON_PRIM


def test_recovery_replays_only_greens_after_latest_snapshot():
    """Greens journaled before the latest db_snapshot are subsumed by
    it and not replayed; replay restarts at its applied_count."""
    sim = Simulator()
    store = make_store(sim)
    first, second, third = (action(2, 1, ("SET", "a", 1)),
                            action(2, 2, ("SET", "a", 2)),
                            action(3, 1, ("SET", "b", 3)))
    base = Database()
    base.apply(first)
    base.apply(second)
    store.wal.append("green", first, forced=False)
    store.wal.append("db_snapshot", Database().snapshot(), forced=False)
    store.wal.append("green", first, forced=False)
    store.wal.append("green", second, forced=False)
    store.wal.append("db_snapshot", base.snapshot(), forced=False)
    seed_store(sim, store, greens=[third])
    engine = make_engine(sim, store)
    recover_engine(engine)
    assert engine.queue.green_offset == 2
    assert engine.queue.green_count == 3
    assert engine.database.applied_log == [first.action_id,
                                           second.action_id,
                                           third.action_id]
    assert engine.database.state == {"a": 2, "b": 3}


def test_recovery_refuses_a_green_the_snapshot_covers():
    """A green journaled after a snapshot that already holds it breaks
    the position rule: replaying it would apply an action the queue
    refuses, so recovery must stop instead of diverging."""
    sim = Simulator()
    store = make_store(sim)
    first = action(2, 1, ("APPEND", "log", 1))
    base = Database()
    base.apply(first)
    store.wal.append("db_snapshot", base.snapshot(), forced=False)
    seed_store(sim, store, greens=[first])
    engine = make_engine(sim, store)
    with pytest.raises(AssertionError, match="position 1"):
        recover_engine(engine)


def test_recovery_restores_red_snapshot():
    sim = Simulator()
    store = make_store(sim)
    seed_store(sim, store,
               greens=[action(2, 1)],
               reds=[action(3, 1), action(2, 2)])
    engine = make_engine(sim, store)
    recover_engine(engine)
    reds = {a.action_id for a in engine.queue.red_actions()}
    assert reds == {ActionId(3, 1), ActionId(2, 2)}


def test_recovery_skips_red_snapshot_already_green():
    """If a snapshot red was later greened and the green record is
    durable, the red replay must dedupe."""
    sim = Simulator()
    store = make_store(sim)
    shared = action(3, 1, ("SET", "x", 1))
    seed_store(sim, store, greens=[shared], reds=[shared])
    engine = make_engine(sim, store)
    recover_engine(engine)
    assert engine.queue.green_count == 1
    assert engine.queue.red_actions() == []


def test_recovery_remarks_own_ongoing_actions_red():
    sim = Simulator()
    store = make_store(sim)
    mine = action(1, 1, ("SET", "mine", 1))
    seed_store(sim, store, ongoing=[mine],
               records={"action_index": 1})
    engine = make_engine(sim, store)
    recover_engine(engine)
    assert ActionId(1, 1) in {a.action_id
                              for a in engine.queue.red_actions()}
    assert engine.action_index == 1


def test_recovery_action_index_covers_ongoing():
    """action_index must never regress below journaled actions, or the
    server would reuse action ids after recovery."""
    sim = Simulator()
    store = make_store(sim)
    seed_store(sim, store,
               ongoing=[action(1, 5)], records={"action_index": 2})
    engine = make_engine(sim, store)
    recover_engine(engine)
    assert engine.action_index == 5


def test_recovery_preserves_vulnerable_record():
    sim = Simulator()
    store = make_store(sim)
    vulnerable = Vulnerable()
    vulnerable.make_valid(2, 3, (1, 2, 3), self_id=1)
    seed_store(sim, store, records={"vulnerable": vulnerable,
                                    "attempt_index": 3})
    engine = make_engine(sim, store)
    recover_engine(engine)
    assert engine.vulnerable.is_valid
    assert engine.vulnerable.attempt_key() == (2, 3, (1, 2, 3))
    assert engine.attempt_index == 3


def test_recovery_preserves_prim_component():
    sim = Simulator()
    store = make_store(sim)
    prim = PrimComponent(prim_index=4, attempt_index=2,
                         servers=(1, 2, 3))
    seed_store(sim, store, records={"prim_component": prim})
    engine = make_engine(sim, store)
    recover_engine(engine)
    assert engine.prim_component.prim_index == 4
    assert engine.prim_component.servers == (1, 2, 3)


def test_recovery_drops_yellow_without_payloads():
    """A valid yellow record whose action payloads did not survive is
    no better than red knowledge; it must be invalidated."""
    sim = Simulator()
    store = make_store(sim)
    yellow = Yellow(status="valid", set=[ActionId(9, 1)])
    seed_store(sim, store, records={"yellow": yellow})
    engine = make_engine(sim, store)
    recover_engine(engine)
    assert not engine.yellow.is_valid


def test_recovery_keeps_yellow_with_payloads():
    sim = Simulator()
    store = make_store(sim)
    act = action(2, 1)
    yellow = Yellow(status="valid", set=[act.action_id])
    seed_store(sim, store, reds=[act], records={"yellow": yellow})
    engine = make_engine(sim, store)
    recover_engine(engine)
    assert engine.yellow.is_valid
    assert engine.yellow.set == [act.action_id]


def test_recovery_from_db_snapshot_base():
    """A joiner that bootstrapped from a transfer recovers from its
    snapshot + green tail."""
    sim = Simulator()
    store = make_store(sim)
    base = Database()
    base.apply(action(2, 1, ("SET", "base", 1)))
    store.wal.append("db_snapshot", base.snapshot(), forced=False)
    seed_store(sim, store, greens=[action(3, 1, ("SET", "t", 2))])
    engine = make_engine(sim, store)
    recover_engine(engine)
    assert engine.queue.green_offset == 1
    assert engine.queue.green_count == 2
    assert engine.database.state == {"base": 1, "t": 2}


def test_recovery_empty_store_is_fresh_start():
    sim = Simulator()
    store = make_store(sim)
    engine = make_engine(sim, store)
    recover_engine(engine)
    assert engine.queue.green_count == 0
    assert engine.state is EngineState.NON_PRIM
    assert not engine.vulnerable.is_valid
