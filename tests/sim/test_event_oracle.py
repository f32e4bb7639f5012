"""Differential fuzz of :class:`EventQueue` against a sorted-list oracle.

One seeded stream of schedules (equal-timestamp bursts, some at or
before the drain point), cancels, stale cancels, peeks and bounded
``pop_due`` drains drives the queue and a sorted list of pending
``(when, seq)`` pairs; every pop, peek and pending count must agree.
"""

import random
from bisect import insort

from repro.sim.events import EventQueue


def _fuzz_round(seed: int, ops: int = 3000) -> int:
    rng = random.Random(seed)
    queue = EventQueue()
    queue._compact_min_dead = 8
    oracle: list = []
    handles: list = []
    now = 0.0
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.45:
            when = max(0.0, now + rng.choice((0.0, rng.uniform(-500.0, 50_000.0))))
            for _ in range(rng.choice((1, 1, 1, 3))):
                event = queue.schedule(when, _noop)
                handles.append(event)
                insort(oracle, (when, event.seq))
        elif roll < 0.70 and handles:
            # Mostly recent handles, so cancels often hit pending events.
            event = handles[-rng.randrange(1, min(len(handles), 16) + 1)]
            stale = rng.random() < 0.2
            queue.cancel(event, event.seq + 1 if stale else event.seq)
            if not stale and (event.when, event.seq) in oracle:
                oracle.remove((event.when, event.seq))
        elif roll < 0.85:
            assert queue.peek_time() == (oracle[0][0] if oracle else None)
            assert len(queue) == len(oracle)
        else:
            until = now + rng.uniform(0.0, 5_000.0)
            while True:
                event, when = queue.pop_due(until)
                if event is None:
                    assert when == (oracle[0][0] if oracle else None)
                    break
                assert (when, event.seq) == oracle.pop(0)
            now = until
    while (event := queue.pop()) is not None:
        assert (event.when, event.seq) == oracle.pop(0)
    assert oracle == [] and len(queue) == 0
    return queue.compactions


def _noop() -> None:
    pass


def test_fuzz_matches_sorted_list_oracle():
    compactions = [_fuzz_round(20990131 + seed) for seed in range(8)]
    assert sum(compactions) > 0
