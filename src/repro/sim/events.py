"""The event queue for the discrete-event engine.

:class:`EventQueue` is a binary heap of ``(when, seq, event)`` tuples.
The sequence number breaks ties deterministically, so two events
scheduled for the same instant fire in the order they were scheduled;
because every ``seq`` is unique, ordering never reaches the ``Event``
and every comparison is a C-level tuple compare.

Cancellation is lazy with periodic compaction, and ``Event`` objects are
never recycled: a handle keeps reporting ``pending`` truthfully for as
long as its holder keeps it.

While :meth:`EventQueue.dispatch_batch` runs, one zero-delay event
(:meth:`EventQueue.schedule_now`) may wait in a *tail slot* instead of
the heap.  It takes its ``seq`` from the same counter, and the loop
runs it next only if it sorts first in ``(when, seq)``; otherwise it
enters the heap.  See ``docs/ENGINE.md``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.

    Events are created through ``schedule()``; user code holds on to the
    returned handle only if it may need to cancel it (for example, a CPU
    time-slice completion that an interrupt preempts) and cancels it
    through the queue (``Simulation.cancel``).
    """

    __slots__ = ("when", "seq", "callback", "args", "cancelled", "fired")

    def __init__(
        self,
        when: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    @property
    def pending(self) -> bool:
        """True while the event is still going to fire."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.when:.3f}, seq={self.seq}, {name}, {state})"


#: Compaction is considered only once at least this many cancelled
#: entries sit in the heap; below it, rebuilding costs more than the
#: dead weight.
COMPACT_MIN_DEAD = 64


class EventQueue:
    """Deterministic priority queue of :class:`Event` objects.

    Cancellation is lazy (the heap skips dead entries on pop), which is
    O(1) per cancel but lets timer-churn workloads -- preemption
    cancelling every slice-completion event, clients rescheduling
    timeouts -- grow the heap without bound and tax every push and pop.
    When dead entries outnumber live ones (past a small floor) the heap
    is rebuilt with only the live entries: O(live) per compaction,
    amortised O(1) per cancel.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: Cancelled-but-still-heaped entries (fired ones leave on pop).
        self._dead = 0
        self._compact_min_dead = COMPACT_MIN_DEAD
        #: The zero-delay entry scheduled by the running callback, held
        #: out of the heap until that callback returns (see
        #: :meth:`schedule_now`); None when empty.
        self._tail: Optional[tuple[float, int, Event]] = None
        #: True while :meth:`dispatch_batch` runs: only then may the
        #: tail slot fill.
        self._batching = False
        self.compactions = 0
        #: Cancels ignored because the handle's sequence did not match.
        self.stale_cancels = 0

    def __len__(self) -> int:
        """Number of pending (not cancelled, not fired) events."""
        return self._live

    def schedule(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run at simulated time ``when``."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, callback, args)
        self._live += 1
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def schedule_now(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """:meth:`schedule` for an event due at the current instant.

        Inside :meth:`dispatch_batch`, the first such event a callback
        schedules fills the tail slot instead of the heap, and the loop
        takes it with one ``heappushpop`` once the callback returns:
        when nothing in the heap sorts before it, it runs next without
        a heap push or pop.  Anywhere else this is :meth:`schedule`.
        """
        if self._tail is not None or not self._batching:
            return self.schedule(when, callback, *args)
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, callback, args)
        self._live += 1
        self._tail = (when, seq, event)
        return event

    def _flush_tail(self) -> None:
        """Move a waiting tail entry into the heap."""
        tail = self._tail
        if tail is not None:
            self._tail = None
            heapq.heappush(self._heap, tail)

    def cancel(self, event: Event, seq: Optional[int] = None) -> None:
        """Cancel a pending event (lazy removal from the heap).

        ``seq`` guards against mismatched handles: when given, the cancel
        is ignored (and counted in ``stale_cancels``) unless the event
        carries that sequence number.  Cancelling an event that already
        fired or was cancelled is a no-op.
        """
        if seq is not None and event.seq != seq:
            self.stale_cancels += 1
            return
        if not event.cancelled and not event.fired:
            event.cancelled = True
            self._live -= 1
            tail = self._tail
            if tail is not None and tail[2] is event:
                self._tail = None  # never heaped: nothing dead to skip
                return
            self._dead += 1
            if self._dead > self._live and self._dead >= self._compact_min_dead:
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap with live entries only."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self.compactions += 1

    def _drop_dead(self) -> None:
        self._flush_tail()
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop_due(self, until: Optional[float] = None) -> "tuple[Optional[Event], Optional[float]]":
        """Fused peek+pop: one dead-entry sweep and one root inspection.

        Returns ``(event, next_time)``:

        * ``(event, event.when)`` -- the next pending event, popped, when
          it is due at or before ``until`` (or ``until`` is None);
        * ``(None, head_time)`` -- the bound was hit; the head event stays
          queued and fires at ``head_time``;
        * ``(None, None)`` -- the queue is empty.
        """
        self._drop_dead()
        if not self._heap:
            return None, None
        when = self._heap[0][0]
        if until is not None and when > until:
            return None, when
        event = heapq.heappop(self._heap)[2]
        event.fired = True
        self._live -= 1
        return event, when

    def pop(self) -> Optional[Event]:
        """Remove and return the next pending event, or None when empty."""
        return self.pop_due()[0]

    def dispatch_batch(
        self, sim: Any, clock: Any, until: Optional[float], limit: int
    ) -> "tuple[float | None, bool]":
        """Dispatch up to ``limit`` due events, advancing ``clock`` in place.

        The engine's hot loop, hosted by the queue so every per-event
        step runs on hoisted locals.  Dispatch order, clock updates, and
        stop semantics are identical to calling ``pop_due`` in a loop,
        tail slot included: the tail is empty whenever the loop exits.
        Increments ``sim._events_dispatched`` (even on a callback
        exception) and returns ``(next_time, drained)``:

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
                when, _seq, event = entry
                if event.cancelled:
                    self._dead -= 1
                    continue
                if when > bound:
                    heapq.heappush(heap, entry)
                    return when, False
                event.fired = True
                self._live -= 1
                clock._now = when
                args = event.args
                if args:
                    event.callback(*args)
                else:
                    event.callback()
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
