"""Unit tests for the discrete-event simulator."""

import pytest

from repro.errors import SimulationError
from repro.sim.event_loop import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(2.0, lambda now: fired.append(("b", now)))
    sim.schedule_at(1.0, lambda now: fired.append(("a", now)))
    sim.run_until(10.0)
    assert fired == [("a", 1.0), ("b", 2.0)]
    assert sim.now == 10.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda now: fired.append("first"))
    sim.schedule_at(1.0, lambda now: fired.append("second"))
    sim.run_until(2.0)
    assert fired == ["first", "second"]


def test_schedule_in_uses_relative_delay():
    sim = Simulator(start_time=5.0)
    fired = []
    sim.schedule_in(1.5, lambda now: fired.append(now))
    sim.run_for(2.0)
    assert fired == [6.5]


def test_cannot_schedule_in_the_past():
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(4.0, lambda now: None)
    with pytest.raises(SimulationError):
        sim.schedule_in(-1.0, lambda now: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule_at(1.0, lambda now: fired.append(now))
    event.cancel()
    sim.run_until(2.0)
    assert fired == []


def test_cancelled_periodic_chains_leave_the_heap_within_one_period():
    sim = Simulator()
    fired = []
    handles = [sim.schedule_periodic(1.0, lambda now, i=i: fired.append(i)) for i in range(200)]
    sim.run_until(1.5)
    for handle in handles[:150]:
        handle.cancel()
    assert sim.pending_events == 50
    sim.run_until(2.5)
    # Lazy cancellation: every cancelled occurrence came due and was dropped.
    assert len(sim._queue) == 50
    assert not any(entry[2].cancelled for entry in sim._queue)
    # Dropped occurrences are not counted as fired.
    assert sim.events_fired == len(fired) == 250


def test_periodic_handle_cancel_stops_chain():
    sim = Simulator()
    fired = []
    handle = sim.schedule_periodic(1.0, lambda now: fired.append(now))
    sim.run_until(3.5)
    assert fired == [1.0, 2.0, 3.0]
    handle.cancel()
    assert sim.pending_events == 0  # the pending occurrence is cancelled
    sim.run_until(10.0)
    assert fired == [1.0, 2.0, 3.0]


def test_run_until_stops_at_end_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, lambda now: fired.append(now))
    sim.run_until(2.0)
    assert fired == []
    assert sim.pending_events == 1
    sim.run_until(6.0)
    assert fired == [5.0]


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(now):
        fired.append(now)
        if now < 3.0:
            sim.schedule_in(1.0, chain)

    sim.schedule_at(1.0, chain)
    sim.run_until(10.0)
    assert fired == [1.0, 2.0, 3.0]
