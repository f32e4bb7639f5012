"""EventQueue heap compaction under cancellation churn."""

from repro.sim import events
from repro.sim.events import EventQueue


def _noop() -> None:
    pass


def test_compaction_triggers_and_preserves_pending_events():
    q = EventQueue()
    keep = [q.schedule(float(i), _noop, i) for i in range(10)]
    churn = [q.schedule(1000.0 + i, _noop) for i in range(events.COMPACT_MIN_DEAD + 10)]
    for event in churn:
        q.cancel(event)
    assert q.compactions >= 1
    # Every dead entry in the heap is accounted for; the compacted bulk
    # is gone (only post-compaction cancellations may linger).
    assert len(q._heap) == len(keep) + q._dead
    assert q._dead < events.COMPACT_MIN_DEAD
    assert len(q) == len(keep)
    # Pop order is unchanged: time order, with original args intact.
    popped = []
    while True:
        event = q.pop()
        if event is None:
            break
        popped.append(event.args[0])
    assert popped == list(range(10))


def test_no_compaction_below_floor():
    q = EventQueue()
    live = q.schedule(5.0, _noop)
    doomed = [q.schedule(1.0 + i, _noop) for i in range(events.COMPACT_MIN_DEAD // 2)]
    for event in doomed:
        q.cancel(event)
    # Dead outnumber live but stay under the floor: no rebuild yet.
    assert q.compactions == 0
    assert q.pop() is live


def test_dead_count_tracks_pop_side_drain():
    q = EventQueue()
    doomed = [q.schedule(float(i), _noop) for i in range(10)]
    tail = q.schedule(99.0, _noop)
    for event in doomed:
        q.cancel(event)
    # pop() drains the dead prefix lazily; the counter must follow so a
    # later compaction scan is not triggered by already-drained entries.
    assert q.pop() is tail
    assert q._dead == 0


def test_floor_changes_compaction_eagerness():
    q = EventQueue()
    q._compact_min_dead = 4
    keep = q.schedule(0.5, _noop)
    doomed = [q.schedule(10.0 + i, _noop) for i in range(8)]
    for event in doomed:
        q.cancel(event)
    assert q.compactions >= 1  # default floor of 64 would never trigger
    assert q.pop() is keep
