"""Structured trace bus.

Subsystems publish :class:`TraceRecord` entries (scheduling decisions,
packet drops, container charges, ...) to a :class:`TraceBus`.  Consumers
subscribe by category.  Tracing is off by default and costs one predicate
check per publish, so instrumented code paths stay cheap in large runs.

The experiment harnesses use traces to assemble the per-figure series; the
tests use them to assert on internal behaviour (e.g. "the SYN was dropped
before protocol processing").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    Attributes:
        time: simulated time (microseconds) at which the event occurred.
        category: dotted event name, e.g. ``"net.drop"`` or ``"sched.pick"``.
        data: free-form payload describing the event.
    """

    time: float
    category: str
    data: dict[str, Any] = field(default_factory=dict)


class TraceBus:
    """Publish/subscribe hub for trace records.

    ``publish`` is on the hot path of every instrumented subsystem, so
    the matched handler list for each category is memoized: the
    ``startswith`` scan over subscriber keys runs once per distinct
    category, not once per publish.  ``subscribe`` invalidates the memo
    (categories are few, handlers subscribe rarely, publishes are
    millions).

    :attr:`active` is a plain attribute, read before every publish in
    the instrumented code; :meth:`subscribe`, :meth:`record` and
    :meth:`stop_recording` keep it equal to "any subscriber or recorder
    is attached".
    """

    def __init__(self) -> None:
        self._subscribers: dict[str, list[Callable[[TraceRecord], None]]] = {}
        self._recording: list[TraceRecord] | None = None
        self._record_categories: set[str] | None = None
        #: category -> flat tuple of handlers whose key matches it.
        self._match_cache: dict[str, tuple] = {}
        #: category -> whether the active recording captures it.
        self._record_match_cache: dict[str, bool] = {}
        #: True if any subscriber or recorder is attached.
        self.active = False

    def subscribe(
        self, category: str, handler: Callable[[TraceRecord], None]
    ) -> None:
        """Register ``handler`` for records whose category matches.

        A category of ``"*"`` receives everything; otherwise matching is by
        exact category or by dotted prefix (subscribing to ``"net"``
        receives ``"net.drop"``).
        """
        self._subscribers.setdefault(category, []).append(handler)
        self._match_cache.clear()
        self.active = True

    def record(self, categories: Iterable[str] | None = None) -> list[TraceRecord]:
        """Start recording matching records into a list, and return it.

        Args:
            categories: restrict recording to these categories (prefix
                matched); None records everything.
        """
        self._recording = []
        self._record_categories = set(categories) if categories is not None else None
        self._record_match_cache.clear()
        self.active = True
        return self._recording

    def stop_recording(self) -> list[TraceRecord]:
        """Stop recording and return the captured records."""
        captured = self._recording or []
        self._recording = None
        self._record_categories = None
        self._record_match_cache.clear()
        self.active = bool(self._subscribers)
        return captured

    def publish(self, time: float, category: str, **data: Any) -> None:
        """Publish one record.  Cheap no-op when nothing is attached.

        The record object is only constructed once the category is known
        to reach a recorder or at least one handler, so publishers of
        unwatched categories pay dict lookups but no allocation.
        """
        if not self.active:
            return
        handlers = self._match_cache.get(category)
        if handlers is None:
            handlers = self._matched_handlers(category)
            self._match_cache[category] = handlers
        recording = (
            self._recording is not None and self._matches_recording(category)
        )
        if not handlers and not recording:
            return
        record = TraceRecord(time=time, category=category, data=data)
        if recording:
            self._recording.append(record)
        for handler in handlers:
            handler(record)

    def _matched_handlers(self, category: str) -> tuple:
        """Handlers whose subscription key matches ``category``.

        Subscription (hence registration) order is preserved within and
        across keys, matching the pre-memoization dispatch order.
        """
        matched = []
        for key, handlers in self._subscribers.items():
            if key == "*" or category == key or category.startswith(key + "."):
                matched.extend(handlers)
        return tuple(matched)

    def _matches_recording(self, category: str) -> bool:
        if self._record_categories is None:
            return True
        cached = self._record_match_cache.get(category)
        if cached is None:
            cached = any(
                category == key or category.startswith(key + ".")
                for key in self._record_categories
            )
            self._record_match_cache[category] = cached
        return cached
