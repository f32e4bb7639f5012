"""The event queue for the discrete-event engine.

:class:`EventQueue` is a binary heap of ``[when, seq, callback, args]``
lists.  The list *is* the event: ``schedule``/``schedule_now`` return
it as the handle, and the queue stores nothing else per event.  The
sequence number breaks ties deterministically, so two events scheduled
for the same instant fire in the order they were scheduled; because
every ``seq`` is unique, a comparison never reaches the callback and
every sift step is a C-level list compare.

Firing or cancelling an entry stores ``None`` in its callback slot, so
``handle[2] is None`` means "will not fire".  Handles are never reused,
so a cancel through a handle that already fired is a no-op, whoever
holds it.  Cancellation is lazy with periodic compaction.

While :meth:`EventQueue.dispatch_batch` runs, one zero-delay event
(:meth:`EventQueue.schedule_now`) may wait in a *tail slot* instead of
the heap.  It takes its ``seq`` from the same counter, and the loop
runs it next only if it sorts first in ``(when, seq)``; otherwise it
enters the heap.  See ``docs/ENGINE.md``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: Compaction is considered only once at least this many cancelled
#: entries sit in the heap; below it, rebuilding costs more than the
#: dead weight.
COMPACT_MIN_DEAD = 64


class EventQueue:
    """Deterministic priority queue of ``[when, seq, callback, args]`` entries.

    Cancellation is lazy (the heap skips dead entries on pop), which is
    O(1) per cancel but lets timer-churn workloads -- preemption
    cancelling every slice-completion event, clients rescheduling
    timeouts -- grow the heap without bound and tax every push and pop.
    When dead entries outnumber live ones (past a small floor) the heap
    is rebuilt with only the live entries: O(live) per compaction,
    amortised O(1) per cancel.
    """

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._seq = 0
        #: Cancelled-but-still-heaped entries (fired ones leave on pop).
        self._dead = 0
        self._compact_min_dead = COMPACT_MIN_DEAD
        #: The zero-delay entry scheduled by the running callback, held
        #: out of the heap until that callback returns (see
        #: :meth:`schedule_now`); None when empty.
        self._tail: Optional[list] = None
        #: True while :meth:`dispatch_batch` runs: only then may the
        #: tail slot fill.
        self._batching = False
        self.compactions = 0

    def __len__(self) -> int:
        """Number of pending (not cancelled, not fired) events."""
        return len(self._heap) + (self._tail is not None) - self._dead

    def schedule(
        self, when: float, callback: Callable[..., None], args: tuple = ()
    ) -> list:
        """Schedule ``callback(*args)`` to run at simulated time ``when``."""
        seq = self._seq
        self._seq = seq + 1
        entry = [when, seq, callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_now(
        self, when: float, callback: Callable[..., None], args: tuple = ()
    ) -> list:
        """:meth:`schedule` for an event due at the current instant.

        Inside :meth:`dispatch_batch`, the first such event a callback
        schedules fills the tail slot instead of the heap, and the loop
        takes it with one ``heappushpop`` once the callback returns:
        when nothing in the heap sorts before it, it runs next without
        a heap push or pop.  Anywhere else this is :meth:`schedule`.
        """
        if self._tail is not None or not self._batching:
            return self.schedule(when, callback, args)
        seq = self._seq
        self._seq = seq + 1
        self._tail = entry = [when, seq, callback, args]
        return entry

    def _flush_tail(self) -> None:
        """Move a waiting tail entry into the heap."""
        tail = self._tail
        if tail is not None:
            self._tail = None
            heapq.heappush(self._heap, tail)

    def cancel(self, entry: list) -> None:
        """Cancel a pending event (lazy removal from the heap).

        Cancelling an event that already fired or was cancelled is a
        no-op.
        """
        if entry[2] is None:
            return
        entry[2] = None
        if entry is self._tail:
            self._tail = None  # never heaped: nothing dead to skip
            return
        dead = self._dead = self._dead + 1
        if dead >= self._compact_min_dead and dead > len(self):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap with live entries only."""
        self._heap = [entry for entry in self._heap if entry[2] is not None]
        heapq.heapify(self._heap)
        self._dead = 0
        self.compactions += 1

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        self._flush_tail()
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        return heap[0][0]

    def dispatch_batch(
        self, sim: Any, until: Optional[float], limit: int
    ) -> "tuple[float | None, bool]":
        """Dispatch up to ``limit`` due events, advancing ``sim.now`` in place.

        The engine's hot loop, hosted by the queue so every per-event
        step runs on hoisted locals.  Events fire in ``(when, seq)``
        order, tail slot included: the tail is empty whenever the loop
        exits.  Increments ``sim._events_dispatched`` (even on a
        callback exception) and returns ``(next_time, drained)``:

        * ``(head_time, False)`` -- the ``until`` bound was hit;
        * ``(None, True)`` -- the queue is empty;
        * ``(None, False)`` -- ``limit`` reached or ``sim.stop()``.
        """
        pop = heapq.heappop
        pushpop = heapq.heappushpop
        bound = float("inf") if until is None else until
        dispatched = 0
        self._batching = True
        try:
            while dispatched < limit:
                # Re-read per event: a callback's cancel can trigger
                # _compact(), which rebinds self._heap to a fresh list.
                heap = self._heap
                entry = self._tail
                if entry is None:
                    if not heap:
                        return None, True
                    # Pop first and push back on the (once per run)
                    # bound hit: keys are unique, so the pop order
                    # never depends on the heap's internal layout.
                    entry = pop(heap)
                else:
                    # The last callback's zero-delay event: returned as
                    # is when no heap entry sorts before it, else it
                    # takes the head's place and the head comes out.
                    self._tail = None
                    entry = pushpop(heap, entry)
                when, _seq, callback, args = entry
                if callback is None:
                    self._dead -= 1
                    continue
                if when > bound:
                    heapq.heappush(heap, entry)
                    return when, False
                entry[2] = None
                sim.now = when
                if args:
                    callback(*args)
                else:
                    callback()
                dispatched += 1
                if sim._stop_requested:
                    break
            return None, False
        finally:
            # stop(), the limit and a raising callback leave with the
            # tail possibly filled; in the heap, its (when, seq) puts it
            # exactly where it would have been.
            self._batching = False
            self._flush_tail()
            sim._events_dispatched += dispatched
