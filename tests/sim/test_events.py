"""Event queue ordering, cancellation, and tie-breaking."""

import pytest

from repro.sim.engine import Simulation


@pytest.fixture(params=["heap", "wheel"])
def sim(request):
    """A simulation whose queue is under test, in two configurations.

    The ids keep the names these cases had when the engine carried two
    queue implementations. ``heap`` is the queue as the engine builds it;
    ``wheel`` drops the compaction floor to zero, so a cancel that leaves
    more dead entries than live ones rebuilds the heap on the spot and the
    contract is checked across that rebuild as well.
    """
    sim = Simulation()
    if request.param == "wheel":
        sim.queue._compact_min_dead = 0
    return sim


def pop_due(sim, until=None):
    """One step of the dispatch loop.

    Fires the next event due at or before ``until`` (any, when None)
    and returns ``(True, its time)``; else ``(False, head_time)`` with
    the head left queued, or ``(False, None)`` when nothing is pending.
    """
    before = sim.events_dispatched
    next_when, _drained = sim.queue.dispatch_batch(sim, until, 1)
    if sim.events_dispatched > before:
        return True, sim.now
    return False, next_when


def pop(sim):
    """Fire the next pending event; its time, or None when empty."""
    fired, when = pop_due(sim)
    return when if fired else None


def test_pop_in_time_order(sim):
    queue = sim.queue
    fired = []
    queue.schedule(5.0, fired.append, ("b",))
    queue.schedule(1.0, fired.append, ("a",))
    queue.schedule(9.0, fired.append, ("c",))
    while pop(sim) is not None:
        pass
    assert fired == ["a", "b", "c"]


def test_ties_break_by_schedule_order(sim):
    order = []
    for label in ("first", "second", "third"):
        sim.queue.schedule(7.0, order.append, (label,))
    while pop(sim) is not None:
        pass
    assert order == ["first", "second", "third"]


def test_len_counts_pending_only(sim):
    queue = sim.queue
    event = queue.schedule(1.0, lambda: None)
    queue.schedule(2.0, lambda: None)
    assert len(queue) == 2
    queue.cancel(event)
    assert len(queue) == 1
    pop(sim)
    assert len(queue) == 0


def test_cancelled_event_is_skipped(sim):
    queue = sim.queue
    fired = []
    cancel_me = queue.schedule(1.0, fired.append, ("cancelled",))
    queue.schedule(2.0, fired.append, ("kept",))
    queue.cancel(cancel_me)
    while pop(sim) is not None:
        pass
    assert fired == ["kept"]


def test_double_cancel_is_safe(sim):
    queue = sim.queue
    event = queue.schedule(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_peek_time_skips_cancelled(sim):
    queue = sim.queue
    early = queue.schedule(1.0, lambda: None)
    queue.schedule(3.0, lambda: None)
    queue.cancel(early)
    assert queue.peek_time() == 3.0


def test_pop_empty_returns_none(sim):
    assert pop(sim) is None
    assert sim.queue.peek_time() is None


def test_event_pending_flag(sim):
    # The handle's callback slot is its pending flag: None once fired.
    event = sim.queue.schedule(1.0, lambda: None)
    assert event[2] is not None
    pop(sim)
    assert event[2] is None


def test_cancel_of_a_fired_or_cancelled_handle_is_a_noop():
    sim = Simulation()
    queue = sim.queue
    fired_first = queue.schedule(1.0, lambda: None)
    cancelled = queue.schedule(2.0, lambda: None)
    kept = queue.schedule(3.0, lambda: None)
    assert pop(sim) == 1.0
    queue.cancel(fired_first)
    assert len(queue) == 2 and queue._dead == 0
    queue.cancel(cancelled)
    queue.cancel(cancelled)
    assert len(queue) == 1 and queue._dead == 1
    # A tail entry, cancelled twice by the callback that scheduled it
    # and once more by a later one.
    handles = []

    def schedule_and_cancel() -> None:
        live = len(queue)
        handles.append(sim.after(0.0, lambda: None))
        assert queue._tail is handles[0] and len(queue) == live + 1
        sim.cancel(handles[0])
        sim.cancel(handles[0])
        assert len(queue) == live

    sim.at(2.5, schedule_and_cancel)
    sim.at(2.6, lambda: sim.cancel(handles[0]))
    sim.run(until=2.75)
    assert handles[0][2] is None and queue._dead == 0
    assert len(queue) == 1 and kept[2] is not None
    assert pop(sim) == 3.0 and len(queue) == 0


def test_cancel_after_fire_is_a_noop():
    sim = Simulation()
    queue = sim.queue
    event = queue.schedule(1.0, lambda: None)
    later = queue.schedule(2.0, lambda: None)
    assert pop(sim) == 1.0
    assert event[2] is None and later[2] is not None
    queue.cancel(event)
    assert len(queue) == 1 and queue._dead == 0
    assert pop(sim) == 2.0 and later[2] is None


def test_pop_due_empty_queue(sim):
    assert pop_due(sim) == (False, None)
    assert pop_due(sim, until=5.0) == (False, None)


def test_pop_due_pops_events_at_or_before_bound(sim):
    first = sim.queue.schedule(1.0, lambda: None)
    sim.queue.schedule(5.0, lambda: None)
    assert pop_due(sim, until=5.0) == (True, 1.0)
    assert first[2] is None
    assert pop_due(sim, until=5.0) == (True, 5.0)
    assert pop_due(sim, until=5.0) == (False, None)


def test_pop_due_leaves_head_beyond_bound(sim):
    sim.queue.schedule(7.0, lambda: None)
    assert pop_due(sim, until=5.0) == (False, 7.0)
    assert len(sim.queue) == 1  # still pending
    assert pop_due(sim, until=10.0) == (True, 7.0)


def test_pop_due_skips_cancelled_head(sim):
    dead = sim.queue.schedule(1.0, lambda: None)
    sim.queue.schedule(3.0, lambda: None)
    sim.queue.cancel(dead)
    assert pop_due(sim, until=10.0) == (True, 3.0)


def test_pop_due_without_bound_pops_everything_in_order(sim):
    sim.queue.schedule(2.0, lambda: None)
    sim.queue.schedule(1.0, lambda: None)
    times = []
    while True:
        fired, when = pop_due(sim)
        if not fired:
            break
        times.append(when)
    assert times == [1.0, 2.0]


def test_schedule_at_or_before_drain_point(sim):
    """An event scheduled at/before the last popped time fires next."""
    queue = sim.queue
    fired = []
    queue.schedule(100.0, lambda: None)
    queue.schedule(500.0, lambda: None)
    assert pop_due(sim) == (True, 100.0)
    late = queue.schedule(50.0, fired.append, ("late",))
    assert pop_due(sim) == (True, 50.0)
    assert fired == ["late"] and late[3] == ("late",)
    assert pop_due(sim) == (True, 500.0)
