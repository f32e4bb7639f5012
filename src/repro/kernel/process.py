"""Processes (protection domains) and threads.

The paper's central observation (section 3) is that a classical process
conflates two roles: *protection domain* and *resource principal*.  In
this kernel the :class:`Process` is only a protection domain -- it owns a
descriptor table and threads -- while every unit of consumption is
charged to a :class:`~repro.core.container.ResourceContainer` through the
thread's *resource binding*.

A thread's application logic is a Python generator that yields syscall
objects (:mod:`repro.syscall.api`).  The kernel advances the generator
when a syscall completes; CPU consumption happens only through scheduled
time slices, so thread progress is entirely governed by the scheduler.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.binding import SchedulerBinding
from repro.core.container import ResourceContainer
from repro.kernel.descriptors import DescriptorTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.syscall.api import Syscall

#: Type of a thread body: a generator yielding syscall objects.
ThreadBody = Generator["Syscall", Any, Any]


class ThreadState(enum.Enum):
    """Lifecycle of a thread."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class ExecPhase(enum.Enum):
    """Which half of a syscall the thread is currently paying CPU for."""

    #: Consuming the syscall's entry cost; the semantic action runs when
    #: this phase's CPU is fully consumed.
    ENTRY = "entry"
    #: Consuming a post-wakeup cost (e.g. select()'s return-path scan of
    #: the descriptor set) before the result is delivered.
    RESUME = "resume"


class Thread:
    """A kernel-schedulable thread.  Implements the Schedulable protocol."""

    #: Contract with index-maintaining schedulers: a thread's scheduling
    #: key only changes through notified channels -- wakeups go through
    #: ``Scheduler.on_wakeup``, rebinds through the ``resource_binding``
    #: setter, and binding-set changes through
    #: ``SchedulerBinding.on_change`` -- so the scheduler may keep it in
    #: an index instead of re-evaluating it every pick.
    sched_push_notify = True

    def __init__(
        self,
        tid: int,
        process: "Process",
        body: ThreadBody,
        name: str,
        resource_binding: Optional[ResourceContainer] = None,
    ) -> None:
        self.tid = tid
        self.process = process
        self.body = body
        self.name = name
        self.state = ThreadState.READY
        #: Callback installed by the scheduler; fired when the thread's
        #: scheduling key changes (rebind).  None when not scheduled.
        self.sched_note_change = None
        #: Container charged for this thread's consumption (paper 4.2).
        self._resource_binding: Optional[ResourceContainer] = resource_binding
        #: Kernel-maintained multiplexing set (paper 4.3).
        self.scheduler_binding = SchedulerBinding()
        #: The syscall currently being executed, if any.
        self.pending_op: Optional["Syscall"] = None
        self.phase = ExecPhase.ENTRY
        self.phase_remaining_us = 0.0
        #: Value/exception to deliver into the generator next.
        self.inbox_value: Any = None
        self.inbox_error: Optional[BaseException] = None
        #: Wait queues this thread is currently parked on (for multi-wait
        #: syscalls such as select()).
        self.waiting_on: list = []
        #: Why the thread was woken (opaque tag set by the waker).
        self.wake_tag: Any = None
        #: Pending timeout event for a blocking syscall, if any.
        self.wait_timer = None
        #: Resource binding to restore after a charge-override op (file
        #: I/O through a container-bound descriptor), if any.
        self.binding_restore = None
        self.started = False

    # -- Schedulable protocol -------------------------------------------

    @property
    def resource_binding(self) -> Optional[ResourceContainer]:
        """Container charged for this thread's consumption (paper 4.2)."""
        return self._resource_binding

    @resource_binding.setter
    def resource_binding(self, container: Optional[ResourceContainer]) -> None:
        changed = container is not self._resource_binding
        self._resource_binding = container
        if changed and self.sched_note_change is not None:
            self.sched_note_change()

    @property
    def runnable(self) -> bool:
        """Ready (or running) with CPU work outstanding."""
        return self.state in (ThreadState.READY, ThreadState.RUNNING)

    def charge_container(self) -> Optional[ResourceContainer]:
        return self.resource_binding

    def scheduler_priority(self) -> Optional[int]:
        return self.scheduler_binding.combined_priority()

    # -- work protocol (driven by the CPU dispatcher) ---------------------

    def work_remaining_us(self) -> float:
        """CPU still needed to finish the current syscall phase."""
        return self.phase_remaining_us

    def advance(self, us: float) -> bool:
        """Consume CPU toward the current phase; True when it completes."""
        self.phase_remaining_us -= us
        if self.phase_remaining_us <= 1e-9:
            self.phase_remaining_us = 0.0
            return True
        return False

    def profile_phase(self) -> str:
        """Profiler label: the in-flight syscall's type, or ``run``.

        Only called when tracing is active (see ``CPU._phase_of``).
        """
        if self.pending_op is not None:
            return type(self.pending_op).__name__
        return "run"

    # -- blocking ----------------------------------------------------------

    def park(self) -> None:
        """Transition to BLOCKED (the executor registered wait queues)."""
        self.state = ThreadState.BLOCKED

    def clear_waits(self) -> None:
        """Deregister from every wait queue (called on wake)."""
        for waitq in self.waiting_on:
            waitq.remove(self)
        self.waiting_on.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        binding = self.resource_binding.name if self.resource_binding else None
        return (
            f"Thread(tid={self.tid}, {self.name!r}, {self.state.value}, "
            f"bound={binding!r})"
        )


class Process:
    """A protection domain: descriptor table plus a set of threads.

    Every process has a *default resource container*, created at fork
    time (paper section 4.6); threads start bound to it unless the fork
    explicitly passes the parent's current binding through (the
    traditional-CGI inheritance path of section 4.8).
    """

    def __init__(
        self, pid: int, name: str, default_container: ResourceContainer
    ) -> None:
        self.pid = pid
        self.name = name
        self.default_container = default_container
        self.fds = DescriptorTable()
        self.threads: list[Thread] = []
        self.alive = True
        #: True when this process owns the creation reference on its
        #: default container (released at process exit).  False when the
        #: default was inherited (the fork(inherit_binding=True) path).
        self.owns_default_container = True
        #: Lazily created scalable-event-API queue (see kernel.events).
        self.event_queue = None

    def live_threads(self) -> list[Thread]:
        """Threads that have not exited."""
        return [t for t in self.threads if t.state is not ThreadState.DONE]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Process(pid={self.pid}, {self.name!r}, "
            f"threads={len(self.live_threads())}, alive={self.alive})"
        )
