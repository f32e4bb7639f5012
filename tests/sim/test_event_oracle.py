"""Differential fuzz of :class:`EventQueue` against a sorted-list oracle.

One seeded stream of schedules (equal-timestamp bursts, some at or
before the drain point), cancels (some through handles that already
fired or were cancelled), peeks and bounded one-event drains drives the
queue and a sorted list of pending ``(when, seq)`` pairs; every fired
event, peek and pending count must agree.
"""

import random
from bisect import insort

from repro.sim.engine import Simulation


def _fuzz_round(seed: int, ops: int = 3000) -> int:
    rng = random.Random(seed)
    sim = Simulation()
    queue = sim.queue
    queue._compact_min_dead = 8
    oracle: list = []
    handles: list = []
    fired: list = []
    now = 0.0

    def pop_due(until):
        """Fire one event due by ``until``: ``(its handle, None)``, else
        ``(None, head_time)`` (``head_time`` None when empty)."""
        before = len(fired)
        next_when, _drained = queue.dispatch_batch(sim, until, 1)
        if len(fired) > before:
            return handles[fired[-1]], None
        return None, next_when

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.45:
            when = max(0.0, now + rng.choice((0.0, rng.uniform(-500.0, 50_000.0))))
            for _ in range(rng.choice((1, 1, 1, 3))):
                event = queue.schedule(when, fired.append, (len(handles),))
                handles.append(event)
                insort(oracle, (when, event[1]))
        elif roll < 0.70 and handles:
            # Mostly recent handles, so cancels often hit pending events;
            # the rest hit fired or cancelled ones and must change nothing.
            event = handles[-rng.randrange(1, min(len(handles), 16) + 1)]
            key = (event[0], event[1])
            assert (event[2] is not None) == (key in oracle)
            queue.cancel(event)
            if rng.random() < 0.2:
                queue.cancel(event)
            if key in oracle:
                oracle.remove(key)
            assert len(queue) == len(oracle)
        elif roll < 0.85:
            assert queue.peek_time() == (oracle[0][0] if oracle else None)
            assert len(queue) == len(oracle)
        else:
            until = now + rng.uniform(0.0, 5_000.0)
            while True:
                event, when = pop_due(until)
                if event is None:
                    assert when == (oracle[0][0] if oracle else None)
                    break
                assert event[2] is None
                assert (event[0], event[1]) == oracle.pop(0)
            now = until
    while (event := pop_due(None)[0]) is not None:
        assert (event[0], event[1]) == oracle.pop(0)
    assert oracle == [] and len(queue) == 0
    return queue.compactions


def test_fuzz_matches_sorted_list_oracle():
    compactions = [_fuzz_round(20990131 + seed) for seed in range(8)]
    assert sum(compactions) > 0
