"""AsyncioRuntime timer semantics: cancel, reschedule, ordering.

The protocol stack relies on a handful of runtime behaviours the kernel
guarantees (handle ``active`` lifecycle, cancellation, call_soon FIFO,
negative-delay rejection).  These tests pin the asyncio implementation
to the same contract.  No pytest-asyncio: each test drives its own loop
with ``asyncio.run``.
"""

import asyncio

import pytest

from repro.net import Topology
from repro.obs import Observability
from repro.runtime import (AsyncioRuntime, AsyncioTransport, Handle,
                           MemoryTransport, Runtime, Transport,
                           loopback_addresses)
from repro.sim.kernel import SimulationError, Simulator


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# protocol conformance (structural)
# ----------------------------------------------------------------------

def test_both_runtimes_satisfy_the_protocol():
    async def check():
        return isinstance(AsyncioRuntime(), Runtime)
    assert run(check())
    assert isinstance(Simulator(), Runtime)


def test_transports_satisfy_the_protocol():
    async def check():
        return isinstance(MemoryTransport(AsyncioRuntime(), Topology([1])),
                          Transport)
    assert run(check())
    from repro.core import ReplicaCluster
    assert isinstance(ReplicaCluster(n=2).network, Transport)


# ----------------------------------------------------------------------
# timers
# ----------------------------------------------------------------------

def test_post_fires_after_delay():
    async def scenario():
        rt = AsyncioRuntime()
        fired = []
        rt.post(0.01, fired.append, "a")
        rt.post(0.0, fired.append, "b")
        await asyncio.sleep(0.05)
        return fired, rt.events_processed

    fired, processed = run(scenario())
    assert fired == ["b", "a"]
    assert processed == 2


def test_schedule_handle_lifecycle():
    async def scenario():
        rt = AsyncioRuntime()
        fired = []
        handle = rt.schedule(0.005, fired.append, "x")
        assert isinstance(handle, Handle)
        states = [(handle.active, handle.cancelled)]
        await asyncio.sleep(0.03)
        states.append((handle.active, handle.cancelled))
        return fired, states

    fired, states = run(scenario())
    assert fired == ["x"]
    # active before firing; inactive (but not cancelled) after.
    assert states == [(True, False), (False, False)]


def test_cancel_prevents_firing():
    async def scenario():
        rt = AsyncioRuntime()
        fired = []
        handle = rt.schedule(0.005, fired.append, "x")
        handle.cancel()
        handle.cancel()      # idempotent
        await asyncio.sleep(0.03)
        return fired, handle.active, handle.cancelled, rt.events_processed

    fired, active, cancelled, processed = run(scenario())
    assert fired == []
    assert not active and cancelled
    assert processed == 0


def test_reschedule_pattern_replaces_expiry():
    """The Timer helper's start() pattern: cancel the old handle, arm a
    new one.  Only the final expiry fires."""
    async def scenario():
        rt = AsyncioRuntime()
        fired = []
        handle = rt.schedule(0.005, fired.append, "old")
        handle.cancel()
        handle = rt.schedule(0.01, fired.append, "new")
        await asyncio.sleep(0.05)
        return fired

    assert run(scenario()) == ["new"]


def test_timer_helper_runs_on_asyncio():
    """repro.sim.Timer (used by every protocol actor) is runtime-
    agnostic: periodic fire + stop on the live loop."""
    from repro.sim import Timer

    async def scenario():
        rt = AsyncioRuntime()
        ticks = []
        timer = Timer(rt, lambda: ticks.append(rt.now), 0.005,
                      periodic=True)
        timer.start()
        await asyncio.sleep(0.04)
        timer.stop()
        count = len(ticks)
        assert count >= 3
        await asyncio.sleep(0.02)
        return count, len(ticks)

    count, after = run(scenario())
    assert after == count   # no ticks after stop


def test_call_soon_fifo_ordering():
    async def scenario():
        rt = AsyncioRuntime()
        order = []
        rt.call_soon(order.append, 1)
        rt.call_soon(order.append, 2)
        rt.call_soon(order.append, 3)
        await asyncio.sleep(0.01)
        return order

    assert run(scenario()) == [1, 2, 3]


def test_call_soon_cancellable_before_tick():
    async def scenario():
        rt = AsyncioRuntime()
        order = []
        keep = rt.call_soon(order.append, "keep")
        drop = rt.call_soon(order.append, "drop")
        drop.cancel()
        await asyncio.sleep(0.01)
        return order, keep.active

    order, keep_active = run(scenario())
    assert order == ["keep"]
    assert not keep_active


def test_due_now_posts_are_fifo_with_call_soon_and_skip_the_timer_heap():
    """``post(0.0)`` and ``post_at`` a time already passed run with the
    work due now, in submission order with ``call_soon`` (the kernel's
    FIFO-at-now), and never push a loop timer."""
    async def scenario():
        rt = AsyncioRuntime()
        await asyncio.sleep(0.005)
        timers = []
        call_at = rt.loop.call_at

        def counting_call_at(*args, **kwargs):
            timers.append(args[0])
            return call_at(*args, **kwargs)
        rt.loop.call_at = counting_call_at   # call_later goes through it
        order = []
        rt.post(0.0, order.append, 1)
        rt.call_soon(order.append, 2)
        rt.post_at(0.0, order.append, 3)
        rt.post_at(rt.now, order.append, 4)
        rt.call_soon(order.append, 5)
        rt.post(0.0, order.append, 6)
        due_now_timers = len(timers)
        rt.post(0.001, order.append, 7)
        all_timers = len(timers)
        del rt.loop.call_at
        await asyncio.sleep(0.02)
        return order, due_now_timers, all_timers, rt.events_processed

    order, due_now_timers, timers, processed = run(scenario())
    assert order == [1, 2, 3, 4, 5, 6, 7]
    assert due_now_timers == 0
    assert timers == 1                  # only the delayed post
    assert processed == 7


def test_callback_exceptions_are_counted_and_passed_on():
    async def scenario():
        loop = asyncio.get_running_loop()
        seen = []
        loop.set_exception_handler(lambda _loop, context: seen.append(
            type(context.get("exception")).__name__))
        rt = AsyncioRuntime()

        def boom():
            raise KeyError("lost")
        rt.post(0.0, boom)
        rt.post(0.001, boom)
        rt.call_soon(lambda: None)
        await asyncio.sleep(0.02)
        return rt.callback_errors, rt.last_callback_error, seen

    errors, last, seen = run(scenario())
    assert errors == 2
    assert isinstance(last["exception"], KeyError)
    assert seen == ["KeyError", "KeyError"]      # chained, not swallowed


def test_callback_error_is_a_flight_recorded_anomaly():
    """A LiveCluster logs each loop callback error once — the first
    cluster on a shared runtime wins — and the flight hub treats it as
    an anomaly, so the dump sink fires."""
    from repro.runtime import LiveCluster

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, _context: None)          # keep the log quiet
        obs = Observability(flight=True)
        dumps = []
        obs.flight_hub.sink = lambda reason, rows: dumps.append(reason)
        cluster = LiveCluster([1], observability=obs)
        other = LiveCluster([2], runtime=cluster.runtime)

        def boom():
            raise KeyError("lost")
        cluster.runtime.post(0.0, boom)
        await asyncio.sleep(0.02)
        other.shutdown()
        cluster.shutdown()
        return cluster, other, obs, dumps

    cluster, other, obs, dumps = run(scenario())
    [row] = cluster.tracer.select("runtime.callback_error")
    assert row["node"] == "runtime" and row["detail"]["error"] == "KeyError"
    assert other.tracer.count("runtime.callback_error") == 0
    assert dumps == ["runtime.callback_error"]
    assert [kind for _t, kind, _trace, _detail
            in obs.flight("runtime").events()] == ["runtime.callback_error"]
    assert obs.snapshot()["repro_runtime_callback_errors_total"] \
        == {"": 1.0}


def test_negative_delay_rejected_like_kernel():
    async def scenario():
        rt = AsyncioRuntime()
        with pytest.raises(SimulationError):
            rt.post(-0.1, lambda: None)
        with pytest.raises(SimulationError):
            rt.schedule(-0.1, lambda: None)

    run(scenario())


def test_past_absolute_time_clamps_to_now():
    """Divergence from the kernel, by design: wall clocks drift, so a
    stale absolute deadline fires immediately instead of raising."""
    async def scenario():
        rt = AsyncioRuntime()
        fired = []
        await asyncio.sleep(0.01)
        rt.post_at(0.0, fired.append, "past")
        rt.schedule_at(0.0, fired.append, "past2")
        await asyncio.sleep(0.01)
        return fired

    assert sorted(run(scenario())) == ["past", "past2"]


def test_now_is_monotonic_and_rebased():
    async def scenario():
        rt = AsyncioRuntime()
        first = rt.now
        await asyncio.sleep(0.01)
        second = rt.now
        return first, second

    first, second = run(scenario())
    assert first < 0.005          # rebased to ~zero at creation
    assert second > first


def test_stop_sets_the_stopped_event():
    async def scenario():
        rt = AsyncioRuntime()
        assert not rt.stopped.is_set()
        rt.post(0.005, rt.stop)
        await asyncio.wait_for(rt.wait_stopped(), timeout=1.0)
        return rt.stopped.is_set()

    assert run(scenario())


# ----------------------------------------------------------------------
# reachability: the live transports obey the cluster's Topology
# ----------------------------------------------------------------------

def test_memory_transport_partition_cuts_in_flight():
    async def scenario():
        rt = AsyncioRuntime()
        topology = Topology([1, 2])
        net = MemoryTransport(rt, topology, latency=0.01)
        got = []
        net.attach(1, lambda d: got.append(d.payload))
        net.attach(2, lambda d: got.append(d.payload))
        net.send(1, 2, "before")       # in flight when the cut lands
        topology.partition([[1], [2]])
        net.send(1, 2, "during")       # dropped at send time
        await asyncio.sleep(0.05)
        topology.heal()
        net.send(1, 2, "after")
        await asyncio.sleep(0.05)
        return got, net.datagrams_dropped

    got, dropped = run(scenario())
    assert got == ["after"]
    assert dropped == 2


def test_udp_oversize_frame_is_a_counted_drop_not_an_exception():
    async def scenario():
        rt = AsyncioRuntime()
        net = AsyncioTransport(rt, loopback_addresses([1, 2]),
                               Topology([1, 2]))
        obs = Observability()
        net.observe(obs)
        got = []
        try:
            net.attach(1, lambda d: got.append((1, d.payload)))
            net.attach(2, lambda d: got.append((2, d.payload)))
            huge = b"x" * 70_000
            # The loopback leg is never encoded, so it still arrives.
            net.multicast(1, (1, 2), huge, size=len(huge))
            net.send(1, 2, "small")
            await asyncio.sleep(0.05)
        finally:
            net.close()
        return net, obs, got, huge

    net, obs, got, huge = run(scenario())
    assert sorted(got) == [(1, huge), (2, "small")]
    assert net.oversize_dropped == 1
    assert net.datagrams_dropped == 1
    assert obs.snapshot()["repro_transport_oversize_dropped_total"] \
        == {"": 1.0}
    [row] = obs.flight_hub.select("transport.oversize")
    assert row["node"] == 1 and row["detail"]["payload"] == "bytes"
    assert row["detail"]["bytes"] > len(huge)
    assert [kind for _t, kind, _trace, _detail
            in obs.flight_hub.recorder(1).events()] == ["transport.oversize"]


def test_udp_unencodable_payload_is_a_counted_drop_not_an_exception():
    """A payload outside the codec's grammar is dropped at send with one
    ``transport.unencodable`` event; the socket keeps working."""
    async def scenario():
        rt = AsyncioRuntime()
        net = AsyncioTransport(rt, loopback_addresses([1, 2]),
                               Topology([1, 2]))
        obs = Observability()
        net.observe(obs)
        got = []
        try:
            net.attach(1, lambda d: got.append((1, d.payload)))
            net.attach(2, lambda d: got.append((2, d.payload)))
            odd = {1, 2}
            # The loopback leg is never encoded, so it still arrives.
            net.multicast(1, (1, 2), odd)
            net.send(1, 2, "small")
            await asyncio.sleep(0.05)
        finally:
            net.close()
        return net, obs, got, odd

    net, obs, got, odd = run(scenario())
    assert sorted(got, key=repr) == sorted([(1, odd), (2, "small")],
                                           key=repr)
    assert net.datagrams_dropped == 1
    assert net.oversize_dropped == 0
    [row] = obs.flight_hub.select("transport.unencodable")
    assert row["node"] == 1 and row["detail"]["payload"] == "set"
    assert obs.flight_hub.count("transport.unencodable") == 1


@pytest.mark.parametrize("field, value", [
    ("update", ("SET", "k", {1, 2})),
    ("query", ("GET", object())),
    ("client", 1j),
    ("meta", {"ts": Observability}),
])
def test_submit_refuses_values_outside_the_wire_grammar(field, value):
    """Both runtimes refuse at submission what the wire cannot carry,
    before the action is numbered, and keep accepting plain data."""
    from repro.core import ReplicaCluster
    from repro.runtime import LiveCluster

    def refuses(cluster):
        replica = cluster.replicas[1]
        kwargs = {"update": ("SET", "k", 1), field: value}
        with pytest.raises(TypeError, match="plain data"):
            replica.submit(**kwargs)
        assert replica.engine.stats["client_requests"] == 0
        return replica.submit(("SET", "k", 1), client="c", meta={"n": 1})

    sim = ReplicaCluster(1)
    sim.start_all()
    assert refuses(sim).index == 1

    async def live():
        cluster = LiveCluster([1])
        try:
            cluster.start_all()
            return refuses(cluster)
        finally:
            cluster.shutdown()
    assert run(live()).index == 1


def test_fault_on_a_node_hosted_elsewhere_only_changes_the_topology():
    from repro.runtime import LiveCluster

    async def scenario():
        cluster = LiveCluster([1, 2, 3], hosted=[1])
        try:
            cluster.crash(3)
            down = cluster.topology.reachable(1, 3)
            cluster.recover(3)
            return down, cluster.topology.reachable(1, 3)
        finally:
            cluster.shutdown()

    assert run(scenario()) == (False, True)


def test_udp_join_after_a_thousand_actions_converges():
    """An online join (Section 5.1) over real UDP: the new replica binds
    an OS-assigned port, takes the transfer from its peer and reaches
    the same green order and digest, with every value past 64 bits in
    the snapshot it receives.  A join after 7,250 applied actions still
    completes; after 7,500 the transfer header outgrows one datagram
    (ROADMAP 9)."""
    from repro.core.state_machine import EngineState
    from repro.runtime import udp_cluster

    async def scenario():
        cluster = udp_cluster([1, 2, 3])
        try:
            cluster.start_all()
            await cluster.wait_all_engine_state(EngineState.REG_PRIM,
                                                timeout=10)
            for chunk in range(5):
                for i in range(200):
                    n = chunk * 200 + i
                    cluster.submit(1 + n % 3,
                                   ("SET", f"k{n % 50}", n << 64))
                await cluster.wait_green((chunk + 1) * 200, timeout=10)
            cluster.add_replica(4, peer=2)

            def converged():
                joiner = cluster.replicas[4]
                running = cluster.running_replicas()
                return (joiner.engine.state == EngineState.REG_PRIM
                        and len(running) == 4
                        and len({r.database.digest()
                                 for r in running}) == 1)
            await cluster.wait_until(converged, timeout=10,
                                     what="replica 4 joining")
            cluster.assert_converged()
            assert cluster.replicas[4].database.state["k49"] >= 2 ** 64
            return cluster.green_counts(), cluster.transport
        finally:
            cluster.shutdown()

    counts, transport = run(scenario())
    # The join is an ordered action too.
    assert counts == {1: 1001, 2: 1001, 3: 1001, 4: 1001}
    assert transport.oversize_dropped == 0
