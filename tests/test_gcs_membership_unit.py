"""Unit tests of the membership protocol's message handlers, driven by
direct handler invocation on a real daemon (no timing dependence)."""

import pytest

from repro.gcs import DaemonState, GcsDaemon, GcsSettings
from repro.gcs.types import (FlushDoneMsg, FlushPlanMsg, GatherMsg,
                             InstallMsg, ProposeMsg, StateReportMsg,
                             ViewId)
from repro.net import Network, Topology
from repro.sim import Simulator


def build(nodes=(1, 2, 3)):
    sim = Simulator()
    topo = Topology(list(nodes))
    net = Network(sim, topo)
    settings = GcsSettings(heartbeat_interval=0.02, failure_timeout=0.08,
                           gather_settle=0.02, phase_timeout=0.15)
    daemons = {}
    for node in nodes:
        daemon = GcsDaemon(sim, node, net, set(nodes), settings)
        daemon.start()
        daemons[node] = daemon
    for node in nodes:
        daemons[node].join()
    sim.run(until=1.0)
    return sim, topo, daemons


class TestGatherRounds:
    def test_operational_daemon_joins_higher_round(self):
        sim, _t, daemons = build()
        daemon = daemons[2]
        assert daemon.state == DaemonState.OPERATIONAL
        daemon._on_gather(GatherMsg(3, daemon.attempt + 5, True))
        assert daemon.state == DaemonState.GATHER
        assert daemon.attempt >= daemon.attempt

    def test_gather_from_unjoined_sender_ignored(self):
        sim, _t, daemons = build()
        daemon = daemons[2]
        daemon._on_gather(GatherMsg(9, 99, False))
        assert daemon.state == DaemonState.OPERATIONAL

    def test_same_attempt_straggler_does_not_restart_flush(self):
        sim, _t, daemons = build()
        daemon = daemons[2]
        daemon._enter_gather(daemon.attempt + 1)
        attempt = daemon.attempt
        daemon.state = DaemonState.FLUSH
        daemon._on_gather(GatherMsg(3, attempt, True))
        assert daemon.state == DaemonState.FLUSH
        assert daemon.attempt == attempt

    def test_higher_attempt_restarts_flush(self):
        sim, _t, daemons = build()
        daemon = daemons[2]
        daemon._enter_gather(daemon.attempt + 1)
        daemon.state = DaemonState.FLUSH
        attempt = daemon.attempt
        daemon._on_gather(GatherMsg(3, attempt + 4, True))
        assert daemon.state == DaemonState.GATHER
        assert daemon.attempt == attempt + 4


class TestProposeHandling:
    def test_propose_without_me_ignored(self):
        sim, _t, daemons = build()
        daemon = daemons[2]
        daemon._enter_gather(daemon.attempt + 1)
        daemon._on_propose(ProposeMsg(1, daemon.attempt, (1, 3)))
        assert daemon.state == DaemonState.GATHER

    def test_stale_propose_ignored(self):
        sim, _t, daemons = build()
        daemon = daemons[2]
        daemon._enter_gather(daemon.attempt + 1)
        daemon._on_propose(ProposeMsg(1, daemon.attempt - 1, (1, 2, 3)))
        assert daemon.state == DaemonState.GATHER

    def test_valid_propose_triggers_report(self):
        sim, _t, daemons = build()
        daemon = daemons[2]
        daemon._enter_gather(daemon.attempt + 1)
        daemon._on_propose(ProposeMsg(1, daemon.attempt, (1, 2, 3)))
        assert daemon.state == DaemonState.FLUSH
        assert daemon._round_coordinator == 1


class TestInstallGuards:
    def test_install_for_wrong_attempt_ignored(self):
        sim, _t, daemons = build()
        daemon = daemons[2]
        daemon._enter_gather(daemon.attempt + 1)
        daemon.state = DaemonState.FLUSH
        view_before = daemon.view
        daemon._on_install(InstallMsg(1, daemon.attempt + 9,
                                      ViewId(99, 1), (1, 2, 3), ()))
        assert daemon.view == view_before

    def test_install_without_me_ignored(self):
        sim, _t, daemons = build()
        daemon = daemons[2]
        daemon._enter_gather(daemon.attempt + 1)
        daemon.state = DaemonState.FLUSH
        view_before = daemon.view
        daemon._on_install(InstallMsg(1, daemon.attempt,
                                      ViewId(99, 1), (1, 3), ()))
        assert daemon.view == view_before

    def test_flush_done_only_counted_by_coordinator(self):
        sim, _t, daemons = build()
        daemon = daemons[2]  # not the coordinator (1 is)
        daemon._enter_gather(daemon.attempt + 1)
        daemon.state = DaemonState.FLUSH
        daemon._round_coordinator = 1
        daemon._on_flush_done(FlushDoneMsg(3, daemon.attempt))
        assert 3 not in daemon._flush_done


class TestReportHandling:
    def test_reports_for_other_attempts_dropped(self):
        sim, _t, daemons = build()
        coordinator = daemons[1]
        coordinator._enter_gather(coordinator.attempt + 1)
        coordinator.state = DaemonState.FLUSH
        coordinator._round_coordinator = 1
        coordinator._proposal_members = (1, 2, 3)
        stale = StateReportMsg(2, coordinator.attempt - 1, None, (), (),
                               -1)
        coordinator._on_report(stale)
        assert 2 not in coordinator._reports

    def test_plan_for_wrong_old_view_ignored(self):
        sim, _t, daemons = build()
        daemon = daemons[2]
        daemon._enter_gather(daemon.attempt + 1)
        daemon.state = DaemonState.FLUSH
        plan = FlushPlanMsg(1, daemon.attempt, ViewId(77, 7), (), (), -1)
        daemon._on_plan(plan)
        assert daemon._my_plan is None


class TestViewsAfterDirectDriving:
    def test_system_reconverges_after_forced_churn(self):
        """Whatever handler-level poking happened above must not leave
        a live system wedged: force a full churn and re-settle."""
        sim, topo, daemons = build()
        daemons[2]._enter_gather(daemons[2].attempt + 1)
        sim.run(until=sim.now + 1.0)
        views = {d.view.view_id for d in daemons.values()}
        assert len(views) == 1
        assert daemons[1].view.members == frozenset({1, 2, 3})
