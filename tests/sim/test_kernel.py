"""Tests for the discrete-event simulator kernel."""

import pytest

from repro.sim.errors import SchedulingInPastError, SimulationLimitExceeded
from repro.sim.kernel import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_schedule_order():
    sim = Simulator()
    fired = []
    for label in ("first", "second", "third"):
        sim.schedule(5.0, fired.append, label)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]
    assert sim.now == 7.5


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingInPastError):
        sim.schedule(-0.1, lambda: None)


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, fired.append, "x")
    timer.cancel()
    sim.run()
    assert fired == []
    assert not timer.active


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    sim.run()


def test_run_until_stops_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 10)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run(until=20.0)
    assert fired == [1, 10]


def test_run_until_includes_events_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "edge")
    sim.run(until=5.0)
    assert fired == ["edge"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(4.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [4.0]


def test_max_events_limit():
    sim = Simulator(max_events=10)

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimulationLimitExceeded):
        sim.run()


def test_determinism_same_seed_same_draws():
    a = Simulator(seed=42).rng.fork("net")
    b = Simulator(seed=42).rng.fork("net")
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5
