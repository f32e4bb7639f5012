"""The scalable event API's per-process event queue (reference [5]).

The paper's Fig. 11 "containers/new event API" curve uses "a new scalable
event API, described in [5]": instead of select()'s linear descriptor
scan, the application declares interest once per descriptor and then
dequeues ready events in constant time.  Our kernel additionally delivers
events in **resource-container priority order** (highest first), so a
server sees premium-class work before background work without any
application-side sorting -- this is what flattens the curve.

The queue also carries the ``syn_dropped`` notifications added for the
SYN-flood defence (section 5.7: "We modified the kernel to notify the
application when it drops a SYN").
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from repro.kernel.waitq import WaitQueue
from repro.syscall.api import IOEvent


class ProcessEventQueue:
    """Priority-ordered pending-event queue for one process."""

    def __init__(self, name: str = "evq") -> None:
        self.name = name
        self._heap: list[tuple[int, int, IOEvent]] = []
        #: Tie-breaker among equal priorities: FIFO within this queue.
        self._seq = itertools.count(1)
        #: Suppress duplicate readiness events: (kind, fd) currently queued.
        self._pending_keys: set[tuple[str, int]] = set()
        self._declared: set[int] = set()
        self.waiters = WaitQueue(name)
        self.stats_posted = 0
        self.stats_suppressed = 0

    def __len__(self) -> int:
        return len(self._heap)

    # ------------------------------------------------------------------
    # Interest
    # ------------------------------------------------------------------

    def declare(self, fd: int) -> None:
        """Declare interest in readiness events for ``fd``."""
        self._declared.add(fd)

    def retract(self, fd: int) -> None:
        """Forget a descriptor (close path)."""
        self._declared.discard(fd)

    def is_declared(self, fd: int) -> bool:
        """True if the process asked for events on ``fd``."""
        return fd in self._declared

    # ------------------------------------------------------------------
    # Posting / draining
    # ------------------------------------------------------------------

    def post(self, event: IOEvent, *, dedup: bool = True) -> bool:
        """Queue an event; returns False if suppressed.

        Readiness events (``acceptable``/``readable``) are level-ish:
        while one is queued for a descriptor, further identical posts are
        suppressed -- the application will rediscover remaining readiness
        when it drains the descriptor.
        """
        if event.kind in ("acceptable", "readable") and not self.is_declared(
            event.fd
        ):
            self.stats_suppressed += 1
            return False
        key = (event.kind, event.fd)
        if dedup and key in self._pending_keys:
            self.stats_suppressed += 1
            return False
        if dedup:
            self._pending_keys.add(key)
        heapq.heappush(self._heap, (-event.priority, next(self._seq), event))
        self.stats_posted += 1
        return True

    def pop(self) -> Optional[IOEvent]:
        """Dequeue the highest-priority, oldest pending event."""
        if not self._heap:
            return None
        _neg_priority, _seq, event = heapq.heappop(self._heap)
        self._pending_keys.discard((event.kind, event.fd))
        return event
