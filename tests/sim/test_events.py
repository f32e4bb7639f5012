"""Event queue ordering, cancellation, and tie-breaking."""

import pytest

from repro.sim.events import EventQueue


@pytest.fixture(params=["heap", "wheel"])
def queue(request):
    """The queue under test, in two configurations.

    The ids keep the names these cases had when the engine carried two
    queue implementations. ``heap`` is the queue as the engine builds it;
    ``wheel`` drops the compaction floor to zero, so a cancel that leaves
    more dead entries than live ones rebuilds the heap on the spot and the
    contract is checked across that rebuild as well.
    """
    q = EventQueue()
    if request.param == "wheel":
        q._compact_min_dead = 0
    return q


def test_pop_in_time_order(queue):
    fired = []
    queue.schedule(5.0, fired.append, "b")
    queue.schedule(1.0, fired.append, "a")
    queue.schedule(9.0, fired.append, "c")
    while True:
        event = queue.pop()
        if event is None:
            break
        event.callback(*event.args)
    assert fired == ["a", "b", "c"]


def test_ties_break_by_schedule_order(queue):
    order = []
    for label in ("first", "second", "third"):
        queue.schedule(7.0, order.append, label)
    while (event := queue.pop()) is not None:
        event.callback(*event.args)
    assert order == ["first", "second", "third"]


def test_len_counts_pending_only(queue):
    event = queue.schedule(1.0, lambda: None)
    queue.schedule(2.0, lambda: None)
    assert len(queue) == 2
    queue.cancel(event)
    assert len(queue) == 1
    queue.pop()
    assert len(queue) == 0


def test_cancelled_event_is_skipped(queue):
    fired = []
    cancel_me = queue.schedule(1.0, fired.append, "cancelled")
    queue.schedule(2.0, fired.append, "kept")
    queue.cancel(cancel_me)
    while (event := queue.pop()) is not None:
        event.callback(*event.args)
    assert fired == ["kept"]


def test_double_cancel_is_safe(queue):
    event = queue.schedule(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_peek_time_skips_cancelled(queue):
    early = queue.schedule(1.0, lambda: None)
    queue.schedule(3.0, lambda: None)
    queue.cancel(early)
    assert queue.peek_time() == 3.0


def test_pop_empty_returns_none(queue):
    assert queue.pop() is None
    assert queue.peek_time() is None


def test_event_pending_flag(queue):
    event = queue.schedule(1.0, lambda: None)
    assert event.pending
    queue.pop()
    assert not event.pending


def test_mismatched_seq_cannot_cancel():
    queue = EventQueue()
    event = queue.schedule(1.0, lambda: None)
    queue.cancel(event, event.seq + 1)
    assert queue.stale_cancels == 1
    assert event.pending and len(queue) == 1
    queue.cancel(event, event.seq)
    assert not event.pending and len(queue) == 0


def test_cancel_after_fire_is_a_noop():
    queue = EventQueue()
    event = queue.schedule(1.0, lambda: None)
    later = queue.schedule(2.0, lambda: None)
    assert queue.pop() is event
    queue.cancel(event, event.seq)
    assert len(queue) == 1 and queue._dead == 0
    assert queue.pop() is later


def test_pop_due_empty_queue(queue):
    assert queue.pop_due() == (None, None)
    assert queue.pop_due(until=5.0) == (None, None)


def test_pop_due_pops_events_at_or_before_bound(queue):
    queue.schedule(1.0, lambda: None)
    queue.schedule(5.0, lambda: None)
    event, when = queue.pop_due(until=5.0)
    assert event is not None and when == 1.0 and event.fired
    event, when = queue.pop_due(until=5.0)
    assert event is not None and when == 5.0
    assert queue.pop_due(until=5.0) == (None, None)


def test_pop_due_leaves_head_beyond_bound(queue):
    queue.schedule(7.0, lambda: None)
    event, when = queue.pop_due(until=5.0)
    assert event is None and when == 7.0
    assert len(queue) == 1  # still pending
    event, when = queue.pop_due(until=10.0)
    assert event is not None and when == 7.0


def test_pop_due_skips_cancelled_head(queue):
    dead = queue.schedule(1.0, lambda: None)
    queue.schedule(3.0, lambda: None)
    queue.cancel(dead)
    event, when = queue.pop_due(until=10.0)
    assert event is not None and when == 3.0


def test_pop_due_without_bound_pops_everything_in_order(queue):
    queue.schedule(2.0, lambda: None)
    queue.schedule(1.0, lambda: None)
    times = []
    while True:
        event, when = queue.pop_due()
        if event is None:
            break
        times.append(when)
    assert times == [1.0, 2.0]


def test_schedule_at_or_before_drain_point(queue):
    """An event scheduled at/before the last popped time fires next."""
    queue.schedule(100.0, lambda: None)
    queue.schedule(500.0, lambda: None)
    event, when = queue.pop_due()
    assert when == 100.0
    queue.schedule(50.0, lambda: None, "late")
    event, when = queue.pop_due()
    assert when == 50.0 and event.args == ("late",)
    event, when = queue.pop_due()
    assert when == 500.0
