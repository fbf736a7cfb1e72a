"""Unit tests for the storage substrate: disk, WAL, stable store."""

import pytest

from repro.sim import Simulator
from repro.storage import (DiskProfile, LogRecord, SimulatedDisk,
                           StableStore, WriteAheadLog)


def make_disk(**profile_overrides):
    sim = Simulator()
    params = dict(forced_write_latency=0.010, async_write_latency=0.001)
    params.update(profile_overrides)
    return sim, SimulatedDisk(sim, 1, DiskProfile(**params))


class TestSimulatedDisk:
    def test_forced_write_takes_sync_latency(self):
        sim, disk = make_disk()
        done = []
        disk.write("a", callback=lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.010)]
        assert disk.durable == ["a"]

    def test_group_commit_batches_queued_writes(self):
        sim, disk = make_disk()
        done = []
        for i in range(5):
            disk.write(i, callback=lambda i=i: done.append((i, sim.now)))
        sim.run()
        # First write starts a sync; the other four share the second.
        assert done[0][1] == pytest.approx(0.010)
        assert all(t == pytest.approx(0.020) for _i, t in done[1:])
        assert disk.syncs == 2

    def test_max_batch_one_serializes(self):
        sim, disk = make_disk(max_batch=1)
        done = []
        for i in range(3):
            disk.write(i, callback=lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.010), pytest.approx(0.020),
                        pytest.approx(0.030)]
        assert disk.syncs == 3

    def test_async_write_is_volatile(self):
        sim, disk = make_disk()
        done = []
        disk.write("a", callback=lambda: done.append(sim.now),
                   forced=False)
        sim.run()
        assert done == [pytest.approx(0.001)]
        assert disk.volatile == ["a"]
        assert disk.durable == []

    def test_flush_makes_async_durable(self):
        sim, disk = make_disk()
        disk.write("a", forced=False)
        disk.flush()
        sim.run()
        assert disk.durable == ["a"]
        assert disk.volatile == []

    def test_crash_loses_cache_and_pending(self):
        sim, disk = make_disk()
        done = []
        disk.write("durable-before")
        sim.run()
        disk.write("pending", callback=lambda: done.append("pending"))
        disk.write("cached", forced=False)
        disk.crash()
        sim.run()
        assert done == []
        assert disk.recover() == ["durable-before"]

    def test_crash_mid_sync_loses_batch(self):
        sim, disk = make_disk()
        disk.write("x")
        sim.run(until=0.005)
        disk.crash()
        sim.run()
        assert disk.durable == []

    def test_write_after_crash_recovery_works(self):
        sim, disk = make_disk()
        disk.crash()
        done = []
        disk.write("y", callback=lambda: done.append(1))
        sim.run()
        assert done == [1]
        assert disk.durable == ["y"]

    def test_counters(self):
        sim, disk = make_disk()
        disk.write("a")
        disk.write("b", forced=False)
        sim.run()
        assert disk.forced_writes == 1
        assert disk.async_writes == 1
        assert disk.mean_sync_wait > 0


class TestWriteAheadLog:
    def test_append_and_recover_kinds(self):
        sim, disk = make_disk()
        wal = WriteAheadLog(disk)
        wal.append("green", (0, "a"))
        wal.append("ongoing", "b")
        wal.append("green", (1, "c"))
        sim.run()
        assert [r.data for r in wal.recover_kind("green")] == \
            [(0, "a"), (1, "c")]
        assert wal.last_of_kind("green").data == (1, "c")
        assert wal.last_of_kind("missing") is None

    def test_unforced_append_needs_sync(self):
        sim, disk = make_disk()
        wal = WriteAheadLog(disk)
        wal.append("k", 1, forced=False)
        sim.run()
        assert list(wal.recover()) == []
        wal.sync()
        sim.run()
        assert [r.data for r in wal.recover()] == [1]


class TestStableStore:
    def make_store(self):
        sim, disk = make_disk()
        return sim, disk, StableStore(WriteAheadLog(disk))

    def test_put_visible_immediately_durable_after_sync(self):
        sim, disk, store = self.make_store()
        store.put("k", 1)
        assert store.get("k") == 1
        store.crash()
        assert store.recover() == {}
        store.put("k", 2)
        store.sync()
        sim.run()
        store.crash()
        assert store.recover() == {"k": 2}

    def test_latest_value_wins(self):
        sim, disk, store = self.make_store()
        store.put("k", 1)
        store.put("k", 2)
        store.sync()
        sim.run()
        assert store.recover()["k"] == 2

    def test_put_sync_callback(self):
        sim, disk, store = self.make_store()
        done = []
        store.put_sync("k", 5, callback=lambda: done.append(sim.now))
        sim.run()
        assert done and store.get("k") == 5

    def test_deepcopy_isolation(self):
        sim, disk, store = self.make_store()
        value = {"nested": [1, 2]}
        store.put("k", value)
        value["nested"].append(3)
        assert store.get("k") == {"nested": [1, 2]}

    def test_unchanged_put_journals_the_held_copy(self):
        sim, disk, store = self.make_store()
        value = {"nested": [1, 2]}
        store.put("k", value)
        store.put("k", {"nested": [1, 2]})
        value["nested"].append(3)
        store.put("k", value)
        store.sync()
        sim.run()
        first, same, changed = [record.data[1] for record in disk.durable]
        assert same is first and first == {"nested": [1, 2]}
        assert changed is not value and changed == {"nested": [1, 2, 3]}
        assert store.get("k") is changed

    def test_get_default(self):
        _sim, _disk, store = self.make_store()
        assert store.get("missing", "fallback") == "fallback"
