"""Resource bindings and scheduler bindings (paper sections 4.2-4.3).

*Resource binding*: the dynamic association between a thread and the
container its consumption is charged to.  The application changes it
explicitly (e.g. an event-driven server rebinds its single thread to a
connection's container before handling that connection's event).

*Scheduler binding*: the set of containers a thread has recently been
resource-bound to.  It is maintained **implicitly by the kernel**, based
on observed resource bindings, and is what the scheduler uses to derive a
multiplexed thread's scheduling parameters -- rescheduling a thread on
every rebind would be too expensive, and using only the current
container's usage would misrepresent the thread's recent history.  The
kernel prunes containers the thread has not been bound to recently, and
the application can explicitly reset the set to just the current binding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.container import ResourceContainer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.process import Thread

#: Containers not resource-bound within this many microseconds are pruned
#: from a thread's scheduler binding at the next pruning pass.
DEFAULT_PRUNE_AGE_US = 100_000.0


class SchedulerBinding:
    """The kernel-maintained container set for one thread."""

    __slots__ = ("_members", "_last_bound", "on_change")

    def __init__(self) -> None:
        #: cid -> container, in insertion order (dicts preserve order).
        self._members: dict[int, ResourceContainer] = {}
        #: cid -> last time (us) the thread was resource-bound to it.
        self._last_bound: dict[int, float] = {}
        #: Optional callback fired when the member set changes, so an
        #: index-maintaining scheduler can re-derive the thread's
        #: combined priority without polling every pick.
        self.on_change = None

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, container: ResourceContainer) -> bool:
        return container.cid in self._members

    def members(self) -> list[ResourceContainer]:
        """The containers currently in the binding (alive ones only)."""
        return [c for c in self._members.values() if c.alive]

    def observe(self, container: ResourceContainer, now: float) -> None:
        """Record that the thread was resource-bound to ``container``."""
        added = container.cid not in self._members
        self._members[container.cid] = container
        self._last_bound[container.cid] = now
        if added and self.on_change is not None:
            self.on_change()

    def holds_only(self, container: Optional[ResourceContainer]) -> bool:
        """True if ``container`` is alive and the binding's sole member,
        so ``prune(keep=container)`` would remove nothing."""
        members = self._members
        return (
            len(members) == 1
            and container is not None
            and container.alive
            and container.cid in members
        )

    def prune(
        self,
        now: float,
        max_age_us: float = DEFAULT_PRUNE_AGE_US,
        keep: Optional[ResourceContainer] = None,
    ) -> int:
        """Drop members not bound to recently or no longer alive.

        ``keep`` (the thread's *current* resource binding) is never
        pruned regardless of age: the thread still has a resource
        binding to it.  Returns the number of members removed.  The
        paper (section 4.3): "The kernel prunes the scheduler binding
        ... periodically removing resource containers that the thread
        has not recently had a resource binding to."
        """
        keep_cid = keep.cid if keep is not None and keep.alive else None
        stale = [
            cid
            for cid, container in self._members.items()
            if cid != keep_cid
            and (not container.alive or now - self._last_bound[cid] > max_age_us)
        ]
        for cid in stale:
            del self._members[cid]
            del self._last_bound[cid]
        if stale and self.on_change is not None:
            self.on_change()
        return len(stale)

    def reset_to(self, container: Optional[ResourceContainer], now: float) -> None:
        """Explicit application reset: keep only the current binding."""
        self._members.clear()
        self._last_bound.clear()
        if container is not None and container.alive:
            self.observe(container, now)
        elif self.on_change is not None:
            self.on_change()

    def combined_priority(self) -> Optional[int]:
        """Scheduling priority for a multiplexed thread, or None when
        the binding holds no live container.

        The paper says the scheduler should construct the thread's
        priority from the *combined* numeric priorities of the containers
        in its scheduler binding.  We use the maximum: a thread serving
        both a premium and a background connection must run promptly for
        the premium one; the per-container usage feedback (window
        accounting) then throttles background consumption.
        """
        return max((c.attrs.numeric_priority for c in self.members()),
                   default=None)



class BindingManager:
    """Kernel-side bookkeeping tying threads to containers.

    Owns the reference-count discipline: a thread's resource binding holds
    one reference on its container; rebinding moves that reference.
    Destruction of newly unreferenced containers is delegated to the
    :class:`~repro.core.operations.ContainerManager` via a callback so
    this module stays free of lifecycle policy.

    Also owns the *watch set* of the periodic pruning pass: the threads
    whose scheduler binding may hold more than their current resource
    binding.  In the kernel a member joins a thread's scheduler binding
    only through :meth:`bind_thread` (``reset_to`` only shrinks it), and
    a thread's current container cannot die while the thread holds its
    reference.  So a binding that held only that container at one pass
    still does at the next unless :meth:`bind_thread` rebound the thread
    in between, and that call watches the thread if its binding then
    holds more.  The pass therefore visits only watched threads and
    prunes them exactly as a scan of every thread would.
    """

    def __init__(self, on_unreferenced) -> None:
        self._on_unreferenced = on_unreferenced
        #: Threads the next pruning pass must visit (a dict used as a set).
        self._watched: dict["Thread", None] = {}

    def bind_thread(
        self, thread: "Thread", container: ResourceContainer, now: float
    ) -> ResourceContainer:
        """Set ``thread``'s resource binding; returns the old container.

        Only leaf containers accept thread bindings in the prototype
        (section 5.1); the caller (syscall layer) enforces that rule so
        tests can exercise the raw mechanism.
        """
        old = thread.resource_binding
        binding = thread.scheduler_binding
        if old is container:
            binding.observe(container, now)
            return old
        container.ref_thread_binding()
        thread.resource_binding = container
        binding.observe(container, now)
        if not binding.holds_only(container):
            self._watched[thread] = None
        if old is not None and old.unref_thread_binding():
            self._on_unreferenced(old)
        return old

    def unbind_thread(self, thread: "Thread") -> None:
        """Drop the thread's binding entirely (thread exit)."""
        self._watched.pop(thread, None)
        old = thread.resource_binding
        thread.resource_binding = None
        if old is not None and old.unref_thread_binding():
            self._on_unreferenced(old)

    def prune_watched(
        self, now: float, max_age_us: float = DEFAULT_PRUNE_AGE_US
    ) -> None:
        """Periodic kernel pruning pass (paper section 4.3).

        Visits the watched threads in (pid, tid) order -- the order of a
        scan over every process's threads, which matters because each
        prune's ``on_change`` re-places the thread in the scheduler --
        and prunes each binding that holds more than the thread's live
        current container.  A thread leaves the watch set once its
        binding holds only that container.
        """
        watched = self._watched
        if not watched:
            return
        for thread in sorted(watched, key=_prune_order):
            binding = thread.scheduler_binding
            keep = thread.resource_binding
            if not binding.holds_only(keep):
                binding.prune(now, max_age_us, keep=keep)
                if not binding.holds_only(keep):
                    continue
            del watched[thread]


def _prune_order(thread: "Thread") -> tuple[int, int]:
    return thread.process.pid, thread.tid
