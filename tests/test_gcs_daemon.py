"""Integration-level tests of the GCS daemon: views, ordering, EVS."""

import asyncio
from collections import Counter

import pytest

from repro.gcs import (Configuration, DaemonState, GcsDaemon, GcsListener,
                       GcsSettings, ServiceLevel)
from repro.gcs.types import GatherMsg, StampMsg
from repro.net import Network, NetworkProfile, Topology
from repro.obs import Observability
from repro.sim import RandomStreams, Simulator


def fast_settings(**overrides):
    params = dict(heartbeat_interval=0.02, failure_timeout=0.08,
                  gather_settle=0.02, phase_timeout=0.15,
                  nack_timeout=0.01)
    params.update(overrides)
    return GcsSettings(**params)


class Recorder(GcsListener):
    def __init__(self, node):
        self.node = node
        self.events = []

    def on_regular_conf(self, conf):
        self.events.append(("reg", conf.view_id,
                            tuple(sorted(conf.members))))

    def on_transitional_conf(self, conf):
        self.events.append(("trans", tuple(sorted(conf.members))))

    def on_message(self, payload, origin, in_transitional, service):
        self.events.append(("msg", payload, origin, in_transitional))

    def messages(self):
        return [e[1] for e in self.events if e[0] == "msg"]

    def regular_views(self):
        return [e for e in self.events if e[0] == "reg"]


class Harness:
    def __init__(self, nodes=(1, 2, 3), seed=0, loss=0.0, obs=None,
                 **settings):
        self.sim = Simulator()
        self.nodes = list(nodes)
        self.topology = Topology(self.nodes)
        profile = NetworkProfile(loss_rate=loss, jitter=0.0)
        self.network = Network(self.sim, self.topology, profile,
                               rng=RandomStreams(seed).stream("net"))
        self.settings = fast_settings(**settings)
        self.daemons = {}
        self.recorders = {}
        directory = set(self.nodes)
        for node in self.nodes:
            daemon = GcsDaemon(self.sim, node, self.network, directory,
                               self.settings, obs=obs)
            self.recorders[node] = Recorder(node)
            daemon.listener = self.recorders[node]
            daemon.start()
            self.daemons[node] = daemon

    def join_all(self, settle=0.5):
        for node in self.nodes:
            self.daemons[node].join()
        self.sim.run(until=self.sim.now + settle)

    def run(self, duration):
        self.sim.run(until=self.sim.now + duration)

    def common_view(self):
        views = {d.view.view_id for d in self.daemons.values()
                 if d.view is not None}
        assert len(views) == 1, views
        return views.pop()


def test_initial_view_includes_everyone():
    h = Harness()
    h.join_all()
    view = h.common_view()
    for daemon in h.daemons.values():
        assert daemon.view.members == frozenset(h.nodes)
        assert daemon.state == DaemonState.OPERATIONAL
    assert view.coordinator == 1


def test_safe_multicast_total_order():
    h = Harness()
    h.join_all()
    for i in range(5):
        h.daemons[1].multicast(("a", i))
        h.daemons[2].multicast(("b", i))
        h.daemons[3].multicast(("c", i))
    h.run(0.5)
    messages = [h.recorders[n].messages() for n in h.nodes]
    assert len(messages[0]) == 15
    assert messages[0] == messages[1] == messages[2]


def test_fifo_per_origin():
    h = Harness()
    h.join_all()
    for i in range(10):
        h.daemons[2].multicast(("x", i))
    h.run(0.5)
    for node in h.nodes:
        from_two = [m for m in h.recorders[node].messages()
                    if m[0] == "x"]
        assert from_two == [("x", i) for i in range(10)]


def test_self_delivery():
    h = Harness(nodes=(5,))
    h.join_all()
    h.daemons[5].multicast("solo")
    h.run(0.2)
    assert h.recorders[5].messages() == ["solo"]


def test_multicast_requires_membership():
    h = Harness()
    with pytest.raises(RuntimeError):
        h.daemons[1].multicast("too-early")


def test_partition_installs_disjoint_views():
    h = Harness(nodes=(1, 2, 3, 4, 5))
    h.join_all()
    h.topology.partition([[1, 2], [3, 4, 5]])
    h.run(1.0)
    assert h.daemons[1].view.members == frozenset({1, 2})
    assert h.daemons[3].view.members == frozenset({3, 4, 5})
    assert h.daemons[1].view.view_id != h.daemons[3].view.view_id


def test_transitional_conf_members_from_same_old_view():
    h = Harness(nodes=(1, 2, 3, 4))
    h.join_all()
    h.topology.partition([[1, 2], [3, 4]])
    h.run(1.0)
    trans = [e for e in h.recorders[1].events if e[0] == "trans"]
    # Boot transitional (singleton) + the partition transitional.
    assert trans[-1] == ("trans", (1, 2))


def test_merge_after_heal():
    h = Harness()
    h.join_all()
    h.topology.partition([[1], [2, 3]])
    h.run(1.0)
    h.topology.heal()
    h.run(1.0)
    view = h.common_view()
    assert h.daemons[1].view.members == frozenset({1, 2, 3})


def test_messages_during_partition_stay_in_component():
    h = Harness()
    h.join_all()
    h.topology.partition([[1], [2, 3]])
    h.run(1.0)
    h.daemons[1].multicast("minority")
    h.daemons[2].multicast("majority")
    h.run(0.5)
    assert "minority" in h.recorders[1].messages()
    assert "minority" not in h.recorders[2].messages()
    assert "majority" in h.recorders[2].messages()
    assert "majority" in h.recorders[3].messages()


def test_relative_order_of_common_messages_across_components():
    """EVS: messages delivered at two processes appear in the same
    relative order everywhere, even across view changes."""
    h = Harness()
    h.join_all()
    for i in range(5):
        h.daemons[1].multicast(("pre", i))
    h.run(0.5)
    h.topology.partition([[1], [2, 3]])
    h.run(1.0)
    h.topology.heal()
    h.run(1.0)
    for i in range(3):
        h.daemons[3].multicast(("post", i))
    h.run(0.5)
    logs = [h.recorders[n].messages() for n in h.nodes]
    for other in logs[1:]:
        common = [m for m in logs[0] if m in other]
        filtered = [m for m in other if m in logs[0]]
        assert common == filtered


def test_crash_triggers_view_change():
    h = Harness()
    h.join_all()
    h.topology.crash(2)
    h.daemons[2].crash()
    h.run(1.0)
    assert h.daemons[1].view.members == frozenset({1, 3})


def test_recovered_daemon_rejoins_fresh():
    h = Harness()
    h.join_all()
    h.topology.crash(2)
    h.daemons[2].crash()
    h.run(1.0)
    h.topology.recover(2)
    h.daemons[2].recover()
    h.daemons[2].join()
    h.run(1.0)
    assert h.daemons[2].view.members == frozenset({1, 2, 3})
    assert h.daemons[1].view.view_id == h.daemons[2].view.view_id


def test_leave_shrinks_view():
    h = Harness()
    h.join_all()
    h.daemons[3].leave()
    h.run(1.0)
    assert h.daemons[1].view.members == frozenset({1, 2})
    assert h.daemons[3].view is None


def test_loss_recovery_via_nack():
    # Generous failure/phase timeouts so that 15% loss exercises the
    # NACK data-recovery path rather than membership churn (lost
    # messages across view changes are the *engine's* job to repair).
    h = Harness(loss=0.15, seed=11, failure_timeout=1.0,
                phase_timeout=0.5, heartbeat_interval=0.05)
    h.join_all(settle=3.0)
    view = h.common_view()
    for i in range(20):
        h.daemons[1].multicast(("lossy", i))
    h.run(3.0)
    assert h.common_view() == view  # no membership churn happened
    logs = [h.recorders[n].messages() for n in h.nodes]
    expected = [("lossy", i) for i in range(20)]
    for log in logs:
        assert [m for m in log if m[0] == "lossy"] == expected


def test_view_ids_monotonic_per_node():
    h = Harness()
    h.join_all()
    h.topology.partition([[1], [2, 3]])
    h.run(1.0)
    h.topology.heal()
    h.run(1.0)
    for node in h.nodes:
        epochs = [v[1].epoch for v in h.recorders[node].regular_views()]
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)


def test_safe_delivery_latency_is_milliseconds():
    h = Harness()
    h.join_all()
    start = h.sim.now
    latency = []

    class Probe(GcsListener):
        def on_message(self, payload, origin, in_transitional, service):
            latency.append(h.sim.now - start)

    h.daemons[3].listener = Probe()
    h.daemons[1].multicast("timed")
    h.run(0.2)
    assert latency and latency[0] < 0.01


# ----------------------------------------------------------------------
# idle→immediate stamps and acks (GcsSettings.idle_immediate)
# ----------------------------------------------------------------------
def _spy_sends(h):
    """Record (time, src, message type) of every multicast."""
    sent = []
    original = h.network.multicast

    def multicast(src, dsts, payload):
        sent.append((h.sim.now, src, type(payload).__name__))
        original(src, dsts, payload)
    h.network.multicast = multicast
    return sent


def _spy_timer_starts(h):
    """Record which node armed a stamp or ack window timer."""
    armed = []
    for node, daemon in h.daemons.items():
        for name, timer in (("stamp", daemon._stamp_timer),
                            ("ack", daemon._ack_timer)):
            original = timer.start

            def start(interval=None, _n=node, _k=name, _f=original):
                armed.append((_n, _k))
                _f(interval)
            timer.start = start
    return armed


def test_idle_stamp_and_acks_leave_without_arming_timers():
    h = Harness(idle_immediate=True)
    h.join_all()
    sent = _spy_sends(h)
    armed = _spy_timer_starts(h)
    began = h.sim.now
    h.daemons[1].multicast("lone")
    # Deferred to the end of the dispatch, not sent inside multicast().
    assert h.daemons[1]._stamp_posted
    assert not any(kind == "StampMsg" for _t, _s, kind in sent)
    h.run(0.05)
    assert armed == []
    stamps = [(t, src) for t, src, kind in sent if kind == "StampMsg"]
    assert stamps == [(began, 1)]
    acks = sorted(src for _t, src, kind in sent if kind == "AckMsg")
    assert acks == [1, 2, 3]
    for recorder in h.recorders.values():
        assert recorder.messages() == ["lone"]


def test_idle_safe_delivery_beats_the_window_timers():
    """A lone SAFE message stabilizes in network round trips, not in
    stamp_window + ack_window (the window policy's floor)."""
    latency = {}
    for idle in (False, True):
        h = Harness(idle_immediate=idle)
        h.join_all()
        began = h.sim.now
        delivered = []

        class Probe(GcsListener):
            def on_message(self, payload, origin, in_transitional,
                           service):
                delivered.append(h.sim.now - began)

        h.daemons[2].listener = Probe()
        h.daemons[2].multicast("timed")
        h.run(0.05)
        latency[idle] = delivered[0]
    assert latency[False] > h.settings.stamp_window + h.settings.ack_window
    assert latency[True] < h.settings.ack_window


def test_one_dispatch_burst_leaves_as_one_stamp_batch():
    """A burst multicast in one dispatch is stamped by one batch at the
    end of that turn; later arrivals go out in later turns, never two
    stamp batches or two acks from one node at one instant."""
    h = Harness(idle_immediate=True)
    h.join_all()
    sent = _spy_sends(h)
    stamped = []
    spied = h.network.multicast

    def multicast(src, dsts, payload):
        if isinstance(payload, StampMsg):
            stamped.append(len(payload.stamps))
        spied(src, dsts, payload)
    h.network.multicast = multicast
    for i in range(5):
        h.daemons[1].multicast(("burst", i))       # one dispatch
        h.daemons[2].multicast(("burst", 5 + i))   # spread by the wire
    h.run(0.05)
    assert stamped[0] == 5 and sum(stamped) == 10
    flushes = Counter((t, src, kind) for t, src, kind in sent
                      if kind in ("StampMsg", "AckMsg"))
    assert max(flushes.values()) == 1
    for recorder in h.recorders.values():
        assert sorted(recorder.messages()) == \
            [("burst", i) for i in range(10)]


def test_steady_load_safe_delivers_within_the_ack_window():
    """At a steady 5,000 msg/s every message is safe-delivered at every
    member within ack_window of its multicast: no flush waits out a
    window, and no stamp or ack window timer is ever armed."""
    h = Harness(idle_immediate=True)
    h.join_all()
    armed = _spy_timer_starts(h)
    sent_at, latency = {}, []

    class Probe(GcsListener):
        def on_message(self, payload, origin, in_transitional, service):
            latency.append(h.sim.now - sent_at[payload])

    for daemon in h.daemons.values():
        daemon.listener = Probe()
    step = 0.0002
    for i in range(200):
        sent_at[("load", i)] = h.sim.now
        h.daemons[1 + i % 3].multicast(("load", i))
        h.run(step)
    h.run(0.05)
    assert len(latency) == 3 * 200
    assert max(latency) < h.settings.ack_window
    assert armed == []


@pytest.mark.parametrize("stamp_window", [0.0004, 0.0])
def test_singleton_upcall_multicast_never_nests_delivery(stamp_window):
    """In a one-member view stamping is delivery; a delivery upcall that
    multicasts must not recurse into delivery or overtake messages
    stamped before its own — even with a zero window, where every
    stamp batch finds the window idle."""
    h = Harness(nodes=(5,), idle_immediate=True, stamp_window=stamp_window)
    h.join_all()
    daemon = h.daemons[5]
    order, depth = [], [0, 0]          # current, deepest

    class Echo(GcsListener):
        def on_message(self, payload, origin, in_transitional, service):
            depth[0] += 1
            depth[1] = max(depth[1], depth[0])
            order.append(payload)
            if payload[0] == "a":
                daemon.multicast(("b", payload[1]))
            depth[0] -= 1

    daemon.listener = Echo()
    for i in range(3):
        daemon.multicast(("a", i))
    h.run(0.05)
    assert depth[1] == 1
    assert order == [("a", 0), ("a", 1), ("a", 2),
                     ("b", 0), ("b", 1), ("b", 2)]


# ----------------------------------------------------------------------
# idle→immediate gather: settle once every expected member answered
# ----------------------------------------------------------------------
def _settled(obs, node, how):
    return obs.registry.get_sample("repro_gcs_gather_settled_total",
                                   node, how).value


def test_idle_startup_installs_before_the_settle_window():
    for idle in (False, True):
        h = Harness(idle_immediate=idle)
        h.join_all(settle=h.settings.gather_settle / 2)
        installed = [d.state == DaemonState.OPERATIONAL
                     and d.view.members == frozenset(h.nodes)
                     for d in h.daemons.values()]
        assert all(installed) is idle
    assert all(d.attempt == 1 for d in h.daemons.values())


def test_never_heard_member_keeps_the_settle_timer():
    obs = Observability()
    h = Harness(obs=obs, idle_immediate=True)
    h.topology.crash(3)
    h.daemons[3].crash()          # silent from the start: maybe booting
    for node in (1, 2):
        h.daemons[node].join()
    h.run(h.settings.gather_settle / 2)
    assert h.daemons[1].state == DaemonState.GATHER
    h.run(0.5)
    assert h.daemons[1].view.members == frozenset({1, 2})
    assert _settled(obs, 1, "timer") == 1
    assert _settled(obs, 1, "answered") == 0


def test_never_heard_member_is_presumed_failed_after_the_timeout():
    obs = Observability()
    h = Harness(obs=obs, idle_immediate=True)
    h.topology.crash(3)
    h.daemons[3].crash()
    h.run(h.settings.failure_timeout * 1.5)
    for node in (1, 2):
        h.daemons[node].join()
    h.run(h.settings.gather_settle / 2)
    assert h.daemons[1].view.members == frozenset({1, 2})
    assert _settled(obs, 1, "answered") == 1
    assert _settled(obs, 1, "timer") == 0


def test_member_silent_past_failure_timeout_is_not_waited_for():
    obs = Observability()
    h = Harness(obs=obs, idle_immediate=True)
    h.join_all()
    timer_before = _settled(obs, 1, "timer")
    answered_before = _settled(obs, 1, "answered")
    h.topology.crash(3)
    h.daemons[3].crash()
    h.run(0.5)
    assert h.daemons[1].view.members == frozenset({1, 2})
    assert _settled(obs, 1, "timer") == timer_before
    assert _settled(obs, 1, "answered") == answered_before + 1
    gather = obs.registry.get_sample("repro_gcs_gather_seconds", 1)
    assert gather.count == timer_before + answered_before + 1
    assert gather.quantile(1.0) < h.settings.gather_settle


def test_member_presumed_failed_during_the_gather_stops_holding_it():
    """Node 1 loses 2, then 3 a little later: it suspects 2 while 3 is
    not yet silent past failure_timeout.  Once 3 is, the gather settles
    on answers, not on a gather_settle far beyond the timeout."""
    obs = Observability()
    h = Harness(obs=obs, idle_immediate=True, gather_settle=2.0)
    h.join_all()
    timer_before = _settled(obs, 1, "timer")
    answered_before = _settled(obs, 1, "answered")
    h.topology.partition([[1, 3], [2]])
    h.run(1.5 * h.settings.heartbeat_interval)
    h.topology.partition([[1], [2, 3]])
    h.run(0.5)
    assert h.daemons[1].view.members == frozenset({1})
    assert _settled(obs, 1, "timer") == timer_before
    assert _settled(obs, 1, "answered") == answered_before + 1


def test_higher_attempt_after_the_post_does_not_settle_the_stale_round():
    h = Harness(idle_immediate=True)
    h.join_all()
    daemon = h.daemons[1]
    daemon._enter_gather(daemon.attempt + 1)
    stale = daemon.attempt
    daemon._on_gather(GatherMsg(2, stale, True))
    daemon._on_gather(GatherMsg(3, stale, True))
    assert daemon.state == DaemonState.GATHER   # deferred, not settled
    daemon._on_gather(GatherMsg(2, stale + 1, True))   # 3 not yet heard
    h.run(0.0)                                  # the stale post runs
    assert daemon.state == DaemonState.GATHER
    assert daemon.attempt == stale + 1
    h.run(0.5)
    assert h.common_view() == daemon.view.view_id
    assert daemon.view.members == frozenset(h.nodes)


def test_window_policy_event_count_is_unchanged():
    """Without idle_immediate a gather posts no early settle: a churn
    run under the window policy keeps its pinned event count."""
    h = Harness(nodes=(1, 2, 3, 4))
    h.join_all()
    h.topology.partition([[1], [2, 3, 4]])
    h.run(1.0)
    h.topology.crash(4)
    h.daemons[4].crash()
    h.run(1.0)
    h.topology.heal()
    h.topology.recover(4)
    h.daemons[4].recover()
    h.daemons[4].join()
    h.run(1.0)
    for i in range(3):
        h.daemons[1 + i].multicast(("m", i))
    h.run(0.5)
    assert h.sim.events_processed == 6324
    assert h.common_view().epoch == 4


def test_live_rounds_settle_without_the_timer():
    """On a live loop with a 2 s gather_settle, start-up and a
    partition/merge cycle all settle on answers, never on the timer."""
    from repro.core.state_machine import EngineState
    from repro.runtime import LiveCluster, live_gcs_settings

    async def scenario():
        obs = Observability()
        cluster = LiveCluster([1, 2, 3], observability=obs,
                              gcs_settings=live_gcs_settings(
                                  gather_settle=2.0))
        views = lambda n: {r.daemon.view.view_id   # noqa: E731
                           for r in cluster.replicas.values()
                           if r.daemon.view is not None
                           and len(r.daemon.view.members) == n}
        try:
            cluster.start_all()
            await cluster.wait_all_engine_state(EngineState.REG_PRIM, 10)
            startup = cluster.runtime.now
            cluster.partition([1], [2, 3])
            # Both sides must install their split views before the heal:
            # otherwise node 1 can still hold the old three-member view,
            # which the merge wait below would accept as merged.
            await cluster.wait_until(
                lambda: len(views(2)) == 1 and len(views(1)) == 1, 10)
            cluster.heal()
            await cluster.wait_until(
                lambda: len(views(3)) == 1 and all(
                    r.engine.state == EngineState.REG_PRIM
                    for r in cluster.replicas.values()), 10)
        finally:
            cluster.shutdown()
        return obs, startup

    obs, startup = asyncio.run(scenario())
    assert startup < 2.0
    for node in (1, 2, 3):
        assert _settled(obs, node, "timer") == 0
    assert _settled(obs, 1, "answered") >= 3


# ----------------------------------------------------------------------
# failure detection: with idle_immediate, at the deadline, not the poll
# ----------------------------------------------------------------------
def _suspicions(obs, node, member):
    """The silence ``node`` reported for each suspicion of ``member``."""
    return [r["detail"]["silent"]
            for r in obs.flight_hub.select("gcs.suspect", node)
            if r["detail"]["member"] == member]


def _silence(h, node):
    h.topology.crash(node)
    h.daemons[node].crash()


def _detection_delays(idle):
    """Silence node 3 at 8 offsets spread over one poll period; node 1's
    reported silence when it suspects 3, per offset."""
    delays = []
    for i in range(8):
        obs = Observability.disabled()
        h = Harness(idle_immediate=idle, obs=obs)
        h.join_all()
        h.run(h.settings.failure_timeout / 2 * i / 8)
        _silence(h, 3)
        h.run(2 * h.settings.failure_timeout)
        [silent] = _suspicions(obs, 1, 3)
        delays.append(silent)
    return delays


def test_deadline_detection_suspects_at_the_timeout():
    timeout = fast_settings().failure_timeout
    for silent in _detection_delays(idle=True):
        assert timeout < silent <= timeout + 0.001


def test_window_policy_detection_waits_for_the_poll():
    """The same probe under the window policy: some offset waits out
    part of a poll period, so the test above tells the two apart."""
    timeout = fast_settings().failure_timeout
    delays = _detection_delays(idle=False)
    assert all(silent > timeout for silent in delays)
    assert max(delays) > 1.2 * timeout


def test_deadline_detection_survives_crash_and_recovery():
    """A restart arms the check at half a timeout, not at whatever
    deadline the timer last had."""
    obs = Observability.disabled()
    h = Harness(idle_immediate=True, obs=obs)
    h.join_all()
    _silence(h, 1)
    h.run(0.5)
    h.topology.recover(1)
    h.daemons[1].recover()
    h.daemons[1].join()
    h.run(0.5)
    assert h.daemons[1].view.members == frozenset(h.nodes)
    _silence(h, 2)
    h.run(2 * h.settings.failure_timeout)
    [silent] = _suspicions(obs, 1, 2)
    assert h.settings.failure_timeout < silent \
        <= h.settings.failure_timeout + 0.001


def test_deadline_detection_fault_free_run_installs_no_view():
    """Five fault-free seconds with traffic: nobody is suspected, no
    view is installed, and the check runs about once per
    failure_timeout - heartbeat_interval instead of every half
    timeout."""
    obs = Observability.disabled()
    h = Harness(idle_immediate=True, obs=obs)
    h.join_all()
    installed = {n: d.views_installed for n, d in h.daemons.items()}
    timer = h.daemons[1]._fd_timer
    checks = []
    callback = timer._callback
    timer._callback = lambda: (checks.append(h.sim.now), callback())
    for i in range(50):
        h.daemons[1 + i % 3].multicast(("m", i))
        h.run(0.1)
    assert obs.flight_hub.count("gcs.suspect") == 0
    assert {n: d.views_installed for n, d in h.daemons.items()} == installed
    s = h.settings
    assert len(checks) <= 5.0 / (s.failure_timeout - s.heartbeat_interval) + 1


def test_live_udp_partition_suspects_at_the_timeout():
    """Two partition/heal cycles on UDP loopback: the majority suspects
    the cut-off node 3 within 50 ms of failure_timeout each time (a
    half-timeout poll took up to one and a half timeouts).  Whichever
    of nodes 1 and 2 reaches its deadline first suspects; the other may
    join its gather before its own check runs."""
    from repro.core.state_machine import EngineState
    from repro.runtime import udp_cluster

    async def scenario():
        cluster = udp_cluster([1, 2, 3])
        daemons = [r.daemon for r in cluster.replicas.values()]
        cuts = []

        def merged():
            return all(d.view is not None and len(d.view.members) == 3
                       for d in daemons) and all(
                r.engine.state == EngineState.REG_PRIM
                for r in cluster.replicas.values())
        try:
            cluster.start_all()
            await cluster.wait_until(merged, 15)
            for _ in range(2):
                cuts.append(cluster.runtime.now)
                cluster.partition([1, 2], [3])
                await cluster.wait_until(
                    lambda: daemons[0].view.members == {1, 2}, 10)
                cluster.heal()
                await cluster.wait_until(merged, 10)
        finally:
            cluster.shutdown()
        return cluster.tracer, cuts, cluster.gcs_settings.failure_timeout

    tracer, cuts, timeout = asyncio.run(scenario())
    for begin, end in zip(cuts, cuts[1:] + [float("inf")]):
        silent = [r["detail"]["silent"]
                  for r in tracer.select("gcs.suspect")
                  if begin < r["t"] < end and r["node"] in (1, 2)
                  and r["detail"]["member"] == 3]
        assert silent and all(timeout < s <= timeout + 0.05
                              for s in silent), silent
