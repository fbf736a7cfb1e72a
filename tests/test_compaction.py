"""Log compaction: disk rewrite primitive + engine checkpointing."""

import pytest

from repro.core import EngineConfig, EngineState, ReplicaCluster
from repro.sim import Simulator
from repro.storage import DiskProfile, LogRecord, SimulatedDisk, \
    WriteAheadLog

from conftest import fast_disk_profile, fast_gcs_settings, make_cluster


class TestDiskRewrite:
    def make_disk(self):
        sim = Simulator()
        return sim, SimulatedDisk(sim, 1,
                                  DiskProfile(forced_write_latency=0.01))

    def test_rewrite_replaces_durable(self):
        sim, disk = self.make_disk()
        disk.write("old-1")
        disk.write("old-2")
        sim.run()
        done = []
        disk.rewrite(["new-1"], callback=lambda: done.append(1))
        sim.run()
        assert done == [1]
        assert disk.durable == ["new-1"]

    def test_crash_mid_rewrite_keeps_old_contents(self):
        sim, disk = self.make_disk()
        disk.write("old")
        sim.run()
        disk.rewrite(["new"])
        sim.run(until=sim.now + 0.005)   # sync in flight
        disk.crash()
        sim.run()
        assert disk.recover() == ["old"]

    def test_appends_after_rewrite_follow_it(self):
        sim, disk = self.make_disk()
        disk.write("old")
        sim.run()
        disk.rewrite(["base"])
        disk.write("tail")
        sim.run()
        assert disk.durable == ["base", "tail"]

    def test_flush_before_rewrite_in_one_group_commit_is_subsumed(self):
        """Records flushed before a rewrite land before it, even when
        both ride the same sync: the rewrite replaces them.  (Appended
        after it, they would sit past the rewrite's snapshot and break
        the green journal's position rule.)"""
        sim, disk = self.make_disk()
        disk.write("busy")              # keeps the platter busy
        disk.write("staged", forced=False)
        disk.flush()
        disk.rewrite(["base"])
        disk.write("tail", forced=False)
        disk.flush()
        sim.run()
        assert disk.syncs == 2
        assert disk.durable == ["base", "tail"]

    def test_wal_rewrite_and_size(self):
        sim, disk = self.make_disk()
        wal = WriteAheadLog(disk)
        for i in range(5):
            wal.append("green", (i, f"a{i}"))
        sim.run()
        assert wal.durable_size == 5
        wal.rewrite([LogRecord("db_snapshot", {"state": {}})])
        sim.run()
        assert wal.durable_size == 1
        assert wal.last_of_kind("db_snapshot") is not None


class TestEngineCompaction:
    def compacting_cluster(self, threshold=60):
        return make_cluster(
            3, engine_config=EngineConfig(
                log_compaction_threshold=threshold,
                checkpoint_interval=0.2))

    def test_compaction_bounds_log_size(self):
        cluster = self.compacting_cluster(threshold=60)
        cluster.start_all(settle=1.0)
        client = cluster.client(1)
        for batch in range(6):
            for i in range(20):
                client.submit(("SET", f"k{batch}.{i}", i))
            cluster.run_for(0.6)
        size = cluster.replicas[1].wal.durable_size
        # 120 actions generated; without compaction the log would hold
        # well over 240 records (ongoing + green per action + kv).
        assert size < 200, size

    def test_recovery_after_compaction(self):
        cluster = self.compacting_cluster(threshold=60)
        cluster.start_all(settle=1.0)
        client = cluster.client(1)
        for i in range(80):
            client.submit(("SET", f"k{i}", i))
        cluster.run_for(2.0)
        assert client.completed == 80
        cluster.crash(1)
        cluster.run_for(0.5)
        cluster.recover(1)
        cluster.run_for(2.5)
        cluster.assert_converged()
        assert cluster.replicas[1].database.state["k79"] == 79

    def test_compaction_disabled_by_none(self):
        cluster = make_cluster(
            3, engine_config=EngineConfig(
                log_compaction_threshold=None,
                checkpoint_interval=0.2))
        cluster.start_all(settle=1.0)
        client = cluster.client(1)
        for i in range(60):
            client.submit(("SET", f"k{i}", i))
        cluster.run_for(2.0)
        assert cluster.replicas[1].wal.durable_size > 60

    def test_compaction_preserves_red_actions_and_ongoing(self):
        """Compacting while partitioned (red actions live, own actions
        journaled) must not lose anything needed for recovery."""
        cluster = self.compacting_cluster(threshold=30)
        cluster.start_all(settle=1.0)
        client = cluster.client(1)
        for i in range(40):
            client.submit(("SET", f"k{i}", i))
        cluster.run_for(1.5)
        cluster.partition([1], [2, 3])
        cluster.run_for(1.0)
        cluster.replicas[1].submit(("SET", "red-one", 1))
        cluster.run_for(1.0)   # checkpoints run; compaction may fire
        cluster.crash(1)
        cluster.run_for(0.3)
        cluster.recover(1)
        cluster.run_for(1.0)
        reds = {a.action_id.server_id
                for a in cluster.replicas[1].engine.queue.red_actions()}
        assert 1 in reds
        cluster.heal()
        cluster.run_for(2.5)
        cluster.assert_converged()
        assert cluster.replicas[3].database.state.get("red-one") == 1

    def test_recovery_leaves_no_green_action_ongoing(self):
        """A.13 re-marks only the journaled own actions above the red
        cut; the rest are green already and must not stay ongoing, or
        every later compaction would journal them again."""
        cluster = ReplicaCluster(3, seed=1)
        cluster.start_all(settle=1.0)
        for i in range(50):
            cluster.submit(1, ("SET", f"k{i}", i))
            cluster.run_for(0.01)
        cluster.run_for(1.0)
        cluster.crash(1)
        cluster.run_for(0.2)
        cluster.recover(1)
        cluster.run_for(2.0)
        engine = cluster.replicas[1].engine
        assert engine.state is EngineState.REG_PRIM
        assert engine.queue.green_count == 50
        assert len(engine.ongoing) == 0
        engine.compact_log()
        cluster.run_for(0.5)
        assert [r for r in cluster.replicas[1].wal.recover()
                if r.kind == "ongoing"] == []
