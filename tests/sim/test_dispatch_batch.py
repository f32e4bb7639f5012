"""The batched dispatch loop against a one-event-at-a-time reference loop.

``Simulation.run`` delegates the per-event loop to the queue's
``dispatch_batch``, the hottest code in the repository.  These tests
drive *whole simulations* -- not bare queues -- through identical seeded
workloads, once through ``Simulation.run`` and once through a plain
peek-then-pop loop on the same queue, and require every observable
to match: the dispatched ``(time, tag)`` stream, ``now`` after every
bounded run segment, and the dispatch tally.  Callbacks schedule,
cancel, and stop mid-batch, which is exactly where the batch loop's
aliasing is dangerous (a cancel inside a callback can trigger heap
compaction, which rebinds the backing list).

The reference loop never fills the queue's tail slot (a zero-delay
event scheduled outside ``dispatch_batch`` goes straight to the heap),
so the same fuzz, with zero-delay callbacks added, checks that the
tail changes no order: a zero-delay event stopped, cut off by
``max_events``, cancelled, or left behind by a raising callback.
"""

import functools
import heapq
import random

from repro.sim.engine import Simulation


def _reference_run(sim, until=None, max_events=None) -> None:
    """``Simulation.run``'s contract spelled out one event at a time:
    peek at the head, pop it, fire it."""
    queue = sim.queue
    sim._stop_requested = False
    dispatched = 0
    bounded = False
    while max_events is None or dispatched < max_events:
        when = queue.peek_time()  # drops cancelled heads
        if when is None or (until is not None and when > until):
            bounded = True
            break
        entry = heapq.heappop(queue._heap)
        callback, args = entry[2], entry[3]
        entry[2] = None
        assert when >= sim.now  # time never moves backwards
        sim.now = when
        callback(*args)
        dispatched += 1
        sim._events_dispatched += 1
        if sim._stop_requested:
            break
    if until is not None and sim.now < until:
        if bounded or queue.peek_time() is None:
            sim.now = until


def _run_segmented(batched: bool, seed: int):
    """One seeded workload through one dispatch loop; returns observables."""
    rng = random.Random(seed)
    sim = Simulation()
    sim.queue._compact_min_dead = 8
    run = sim.run if batched else functools.partial(_reference_run, sim)
    log = []
    pending = []

    def cb(tag) -> None:
        log.append((sim.now, tag))
        zero = rng.random()
        if zero < 0.3:
            # A zero-delay follow-up: the tail slot's case.  Some are
            # cancelled at once, some get a same-instant sibling that
            # must queue behind them, and some stop the run.
            event = sim.after(0.0, cb, rng.randrange(10_000))
            if zero < 0.05:
                sim.cancel(event)
            else:
                pending.append(event)
            if zero > 0.25:
                sim.at(sim.now, cb, rng.randrange(10_000))
            if 0.05 < zero < 0.07:
                sim.stop()
        roll = rng.random()
        if roll < 0.55:
            pending.append(
                sim.after(rng.uniform(0.0, 2_000.0), cb, rng.randrange(10_000))
            )
        if roll < 0.25 and pending:
            sim.cancel(pending.pop(rng.randrange(len(pending))))
        if roll < 0.004:
            # A cancellation burst: enough dead entries to compact.
            for event in pending[: len(pending) * 3 // 4]:
                sim.cancel(event)
            del pending[: len(pending) * 3 // 4]
        if roll > 0.995:
            sim.stop()

    for i in range(300):
        pending.append(sim.at(rng.uniform(0.0, 5_000.0), cb, i))

    marks = []
    # Alternate until-bounded and count-bounded segments, then drain.
    for step in range(12):
        if step % 2:
            run(max_events=rng.randrange(1, 60))
        else:
            run(until=sim.now + rng.uniform(0.0, 1_500.0))
        marks.append((round(sim.now, 9), sim.events_dispatched))
    run(max_events=50_000)
    marks.append((round(sim.now, 9), sim.events_dispatched))
    return log, marks, sim.queue.compactions


def test_dispatch_batch_differential_fuzz():
    compactions = 0
    for seed in range(6):
        batch_log, batch_marks, batch_compactions = _run_segmented(True, 7_0131 + seed)
        ref_log, ref_marks, _ = _run_segmented(False, 7_0131 + seed)
        assert batch_log == ref_log
        assert batch_marks == ref_marks
        compactions += batch_compactions
    assert compactions > 0


def test_in_callback_cancel_survives_heap_compaction():
    # A callback cancelling many events can trigger EventQueue._compact,
    # which rebinds the backing heap list mid-batch; the loop must keep
    # dispatching from the *new* list, not a stale alias.
    sim = Simulation()
    sim.queue._compact_min_dead = 4
    fired = []
    doomed = []

    def massacre() -> None:
        for event in doomed:
            sim.cancel(event)

    sim.at(1.0, massacre)
    for i in range(50):
        event = sim.at(10.0 + i, fired.append, i)
        if i % 4:
            doomed.append(event)
    sim.run()
    assert sim.queue.compactions >= 1
    assert fired == [i for i in range(50) if not i % 4]
    assert sim.events_dispatched == 14


def test_max_events_exit_leaves_clock_at_last_event():
    # The old loop checked max_events before popping; a count-bounded
    # exit must leave ``now`` at the last dispatched event even when
    # an until-horizon lies further out.
    sim = Simulation()
    for i in range(5):
        sim.at(10.0 * (i + 1), lambda: None)
    assert sim.run(until=1_000.0, max_events=3) == 30.0
    assert sim.events_dispatched == 3
    # Resuming honours the horizon epilogue once drained.
    assert sim.run(until=1_000.0) == 1_000.0
    assert sim.events_dispatched == 5


def test_stop_halts_after_current_event():
    sim = Simulation()
    order = []

    def stopper() -> None:
        order.append("stop")
        sim.stop()

    sim.at(1.0, order.append, "a")
    sim.at(2.0, stopper)
    sim.at(3.0, order.append, "b")
    sim.run(until=100.0)
    assert order == ["a", "stop"]
    assert sim.now == 2.0
    sim.run(until=100.0)
    assert order == ["a", "stop", "b"]
    assert sim.now == 100.0


def test_in_batch_insertions_dispatch_in_order():
    # A callback scheduling an event *earlier than the next pending one*
    # must see it dispatched first.
    sim = Simulation()
    order = []

    def wedge() -> None:
        order.append("wedge")
        sim.at(5.0, order.append, "inserted")

    sim.at(1.0, wedge)
    sim.at(10.0, order.append, "late")
    sim.run()
    assert order == ["wedge", "inserted", "late"]


def _zero_delay_world(batched: bool):
    """A scripted run through one loop: returns its dispatch log, the
    run's exception (if any), and the final tally."""
    sim = Simulation()
    log = []
    run = sim.run if batched else functools.partial(_reference_run, sim)

    def note(tag) -> None:
        log.append((sim.now, tag))

    def spawner(tag) -> None:
        note(tag)
        sim.after(0.0, note, f"{tag}.zero")
        sim.at(sim.now, note, f"{tag}.sibling")  # queues behind the tail

    def stopper() -> None:
        note("stop")
        sim.after(0.0, note, "stop.zero")
        sim.stop()

    def raiser() -> None:
        note("raise")
        sim.after(0.0, note, "raise.zero")
        raise RuntimeError("callback failed")

    def canceller() -> None:
        note("cancel")
        live = len(sim.queue)
        event = sim.after(0.0, note, "cancel.zero")
        sim.cancel(event)
        assert event[2] is None and len(sim.queue) == live

    sim.at(1.0, note, "early")  # same instant, lower seq: runs first
    sim.at(1.0, spawner, "a")
    sim.at(2.0, stopper)
    sim.at(3.0, raiser)
    sim.at(4.0, canceller)
    sim.at(5.0, spawner, "b")
    error = None
    run(until=10.0)  # stops at 2.0 with stop.zero pending
    assert sim.queue.peek_time() == 2.0
    try:
        run(until=10.0)
    except RuntimeError as exc:
        error = str(exc)
    run(max_events=3)  # raise.zero, canceller, then b
    run(until=10.0)
    return log, error, sim.events_dispatched, sim.queue._dead


def test_zero_delay_events_keep_the_reference_order():
    batch = _zero_delay_world(True)
    assert batch == _zero_delay_world(False)
    log, error, dispatched, dead = batch
    assert [tag for _when, tag in log] == [
        "early", "a", "a.zero", "a.sibling", "stop", "stop.zero", "raise",
        "raise.zero", "cancel", "b", "b.zero", "b.sibling",
    ]
    assert error == "callback failed"
    assert dispatched == 11  # the raising callback is not counted
    assert dead == 0  # a cancelled tail event never entered the heap


def test_tail_waits_for_an_equal_time_event_with_a_lower_seq():
    sim = Simulation()
    order = []

    def first() -> None:
        order.append("first")
        sim.after(0.0, order.append, "zero")

    sim.at(1.0, first)
    sim.at(1.0, order.append, "queued-before-zero")
    sim.run()
    assert order == ["first", "queued-before-zero", "zero"]
    assert sim.events_dispatched == 3


def test_max_events_moves_the_tail_into_the_heap():
    sim = Simulation()
    order = []
    sim.at(1.0, lambda: sim.after(0.0, order.append, "zero"))
    sim.at(2.0, order.append, "later")
    sim.run(max_events=1)
    assert sim.queue._tail is None and len(sim.queue) == 2
    assert sim.queue.peek_time() == 1.0
    sim.run()
    assert order == ["zero", "later"]
    assert sim.events_dispatched == 3
