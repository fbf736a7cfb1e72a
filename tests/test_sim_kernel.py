"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import SimulationError, Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.events_processed == 0


def test_schedule_and_run_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_equal_timestamps_fifo():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(1.0, seen.append, i)
    sim.run()
    assert seen == list(range(10))


def test_schedule_at_absolute():
    sim = Simulator()
    seen = []
    sim.schedule_at(5.0, seen.append, "x")
    sim.run()
    assert seen == ["x"]
    assert sim.now == 5.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []
    assert handle.cancelled
    assert not handle.active


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_deadline():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(5.0, seen.append, "b")
    sim.run(until=2.0)
    assert seen == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert seen == ["a", "b"]


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_event_at_exact_deadline_runs():
    sim = Simulator()
    seen = []
    sim.schedule_at(2.0, seen.append, "edge")
    sim.run(until=2.0)
    assert seen == ["edge"]


def test_events_can_schedule_events():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(3.0, lambda: sim.call_soon(
        lambda: times.append(sim.now)))
    sim.run()
    assert times == [3.0]


def test_stop_halts_run():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, lambda: sim.stop())
    sim.schedule(3.0, seen.append, "b")
    sim.run()
    assert seen == ["a"]
    sim.run()
    assert seen == ["a", "b"]


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_step_single_event():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    assert sim.step()
    assert seen == ["a"]
    assert sim.step()
    assert not sim.step()


def test_pending_excludes_cancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    handle = sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.pending == 1


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 7
