"""EventQueue heap compaction under cancellation churn."""

from repro.sim import events
from repro.sim.engine import Simulation
from tests.sim.test_events import pop


def _noop() -> None:
    pass


def test_compaction_triggers_and_preserves_pending_events():
    sim = Simulation()
    q = sim.queue
    popped = []
    keep = [q.schedule(float(i), popped.append, (i,)) for i in range(10)]
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
    while pop(sim) is not None:
        pass
    assert popped == list(range(10))


def test_no_compaction_below_floor():
    sim = Simulation()
    q = sim.queue
    live = q.schedule(5.0, _noop)
    doomed = [q.schedule(1.0 + i, _noop) for i in range(events.COMPACT_MIN_DEAD // 2)]
    for event in doomed:
        q.cancel(event)
    # Dead outnumber live but stay under the floor: no rebuild yet.
    assert q.compactions == 0
    assert pop(sim) == 5.0 and live[2] is None


def test_dead_count_tracks_pop_side_drain():
    sim = Simulation()
    q = sim.queue
    doomed = [q.schedule(float(i), _noop) for i in range(10)]
    tail = q.schedule(99.0, _noop)
    for event in doomed:
        q.cancel(event)
    # The dispatch loop drains the dead prefix lazily; the counter must
    # follow so a later compaction scan is not triggered by
    # already-drained entries.
    assert pop(sim) == 99.0 and tail[2] is None
    assert q._dead == 0


def test_floor_changes_compaction_eagerness():
    sim = Simulation()
    q = sim.queue
    q._compact_min_dead = 4
    keep = q.schedule(0.5, _noop)
    doomed = [q.schedule(10.0 + i, _noop) for i in range(8)]
    for event in doomed:
        q.cancel(event)
    assert q.compactions >= 1  # default floor of 64 would never trigger
    assert pop(sim) == 0.5 and keep[2] is None


def test_len_stays_exact_through_tail_cancel_heap_cancel_and_compaction():
    # len() is derived (heap + tail - dead), not counted per event, so
    # every way an entry leaves must keep the three terms in step.
    sim = Simulation()
    q = sim.queue
    q._compact_min_dead = 4
    doomed = [q.schedule(10.0 + i, _noop) for i in range(6)]
    q.schedule(20.0, _noop)
    lens = []

    def in_batch() -> None:
        live = len(q)
        tail = sim.after(0.0, _noop)
        lens.append((len(q) - live, q._tail is tail))
        sim.cancel(tail)  # a tail cancel: never heaped, nothing dead
        lens.append((len(q) - live, q._dead))
        sim.cancel(doomed[0])  # a heap cancel: one dead entry
        lens.append((len(q) - live, q._dead))
        for event in doomed[1:]:
            sim.cancel(event)  # past the floor: compaction
        lens.append((len(q) - live, q.compactions))

    sim.at(1.0, in_batch)
    assert len(q) == 8
    sim.run(until=5.0)
    assert lens == [(1, True), (0, 0), (-1, 1), (-6, 1)]
    assert len(q) == 1 and len(q._heap) == 1 + q._dead
    sim.run()
    assert len(q) == 0 and q._dead == 0 and sim.events_dispatched == 2
