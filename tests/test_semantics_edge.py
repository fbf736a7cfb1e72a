"""Semantics-layer edge cases: joiners, recoveries, yellow windows."""

import pytest

from repro.semantics import (InventoryStore, QueryService,
                             ReplicatedService, TimestampStore)

from conftest import make_cluster


@pytest.fixture
def cluster():
    c = make_cluster(3)
    c.start_all(settle=1.0)
    return c


class TestJoinerSemantics:
    def test_joiner_serves_weak_queries_from_inherited_state(self, cluster):
        svc1 = ReplicatedService(cluster.replicas[1])
        svc1.update(("SET", "inherited", "value"))
        cluster.run_for(1.0)
        cluster.add_replica(4, peer=2)
        cluster.run_for(5.0)
        svc4 = ReplicatedService(cluster.replicas[4])
        assert svc4.query(("GET", "inherited"),
                          service=QueryService.WEAK) == "value"

    def test_lww_store_works_across_join(self, cluster):
        # The service registers its procedures durably on every
        # replica, the joiner as soon as it exists: it must carry them
        # before it can apply CALL updates.
        svc = {n: ReplicatedService(r)
               for n, r in cluster.replicas.items()}
        store1 = TimestampStore(svc[1])
        store1.set("k", "v1", timestamp=10.0)
        cluster.run_for(1.0)
        svc4 = ReplicatedService(cluster.add_replica(4, peer=3))
        cluster.run_for(5.0)
        store4 = TimestampStore(svc4)
        assert store4.get("k", QueryService.WEAK) == "v1"
        store4.set("k", "v2", timestamp=20.0)
        cluster.run_for(1.0)
        cluster.assert_converged()
        assert store1.get("k", QueryService.WEAK) == "v2"


class TestRecoverySemantics:
    def test_weak_query_after_recovery_reflects_durable_state(self,
                                                              cluster):
        svc = {n: ReplicatedService(r)
               for n, r in cluster.replicas.items()}
        svc[1].update(("SET", "k", "before-crash"))
        cluster.run_for(1.5)   # let checkpoints land
        cluster.crash(3)
        cluster.run_for(0.5)
        cluster.recover(3)
        cluster.run_for(2.0)
        # Fresh service facade for the recovered replica (new engine).
        svc3 = ReplicatedService(cluster.replicas[3])
        assert svc3.query(("GET", "k"),
                          service=QueryService.WEAK) == "before-crash"

    def test_dirty_view_reset_by_recovery(self, cluster):
        cluster.partition([1], [2, 3])
        cluster.run_for(1.5)
        svc1 = ReplicatedService(cluster.replicas[1])
        svc1.update(("SET", "k", "red"))
        cluster.run_for(0.5)
        assert svc1.query(("GET", "k"),
                          service=QueryService.DIRTY) == "red"
        cluster.crash(1)
        cluster.run_for(0.3)
        cluster.recover(1)
        cluster.run_for(1.0)
        svc1b = ReplicatedService(cluster.replicas[1])
        # The red action survived in the journal and is red again.
        assert svc1b.query(("GET", "k"),
                           service=QueryService.DIRTY) == "red"
        assert svc1b.query(("GET", "k"),
                           service=QueryService.WEAK) is None


class TestInventoryUnderChurn:
    def test_stock_correct_after_join_and_partition(self, cluster):
        stores = {n: InventoryStore(ReplicatedService(r))
                  for n, r in cluster.replicas.items()}
        stores[1].add_stock("x", 50)
        cluster.run_for(1.0)
        cluster.add_replica(4, peer=2)
        cluster.run_for(5.0)
        stores[4] = InventoryStore(
            ReplicatedService(cluster.replicas[4]))
        cluster.partition([1, 4], [2, 3])
        cluster.run_for(1.5)
        # Each side holds exactly half of last prim {1,2,3,4}: the
        # linear tie-break keeps {1,4} (distinguished member 1)
        # primary, so its update commits now; {2,3}'s stays red until
        # the heal merges both.
        stores[4].take_stock("x", 10)   # primary side (tie + member 1)
        stores[2].take_stock("x", 5)    # red side: must not commit
        cluster.run_for(0.5)
        assert sorted(cluster.primary_members()) == [1, 4]
        cluster.heal()
        cluster.run_for(3.0)
        cluster.assert_converged()
        assert stores[3].stock("x", QueryService.WEAK) == 35
