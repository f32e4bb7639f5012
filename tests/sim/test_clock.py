"""Simulated time: the contract of ``Simulation.now``.

``now`` starts at 0, moves only when the dispatch loop fires an event or
``run`` reaches its ``until`` horizon, and never moves backwards.
"""

import pytest

from repro.sim.engine import Simulation


def test_starts_at_zero_by_default():
    assert Simulation().now == 0.0


def test_negative_start_rejected():
    # No event may start before time 0.
    with pytest.raises(ValueError):
        Simulation().at(-1.0, lambda: None)


def test_advance_forward():
    sim = Simulation()
    sim.at(10.5, lambda: None)
    sim.run()
    assert sim.now == 10.5


def test_advance_to_same_time_is_allowed():
    sim = Simulation()
    seen = []
    sim.at(3.0, lambda: sim.at(sim.now, seen.append, sim.now))
    sim.run()
    assert seen == [3.0] and sim.now == 3.0


def test_advance_backwards_rejected():
    sim = Simulation()
    errors = []

    def rewind() -> None:
        try:
            sim.at(9.999, lambda: None)
        except ValueError as exc:
            errors.append(exc)

    sim.at(10.0, rewind)
    sim.run()
    assert len(errors) == 1 and sim.now == 10.0
    # A horizon behind the current time leaves it where it is.
    assert sim.run(until=5.0) == 10.0
    assert sim.now == 10.0


def test_left_at_until_when_the_bound_is_hit():
    sim = Simulation()
    fired = []
    sim.at(7.0, fired.append, "late")
    assert sim.run(until=5.0) == 5.0
    assert sim.now == 5.0 and fired == [] and len(sim.queue) == 1
    assert sim.run(until=10.0) == 10.0
    assert fired == ["late"] and sim.now == 10.0
