"""Scheduler and schedulable-entity interfaces.

A *schedulable* is anything the CPU dispatcher can run: a user/kernel
thread, or one of the per-process kernel network threads used by the LRP
and resource-container processing models (paper section 4.7).  The
scheduler never sees packets or syscalls -- only schedulables, the
containers they charge, and the charges themselves.
"""

from __future__ import annotations

import abc
from typing import Optional, Protocol, runtime_checkable

from repro.core.container import ResourceContainer


@runtime_checkable
class Schedulable(Protocol):
    """What the CPU dispatcher and schedulers require of a runnable entity."""

    #: Human-readable identifier for traces.
    name: str

    #: True if its key only changes through notified channels (wakeups,
    #: ``sched_note_change``, the binding's ``on_change``), so a scheduler
    #: may index it; False (net threads) has it evaluated at every pick.
    sched_push_notify: bool

    @property
    def runnable(self) -> bool:
        """True when the entity has work and is not blocked."""
        ...

    def charge_container(self) -> Optional[ResourceContainer]:
        """The container the *next* slice of work will be charged to.

        For a thread this is its current resource binding; for a kernel
        network thread it is the container of the head packet it would
        process next.  None means "charge nobody" (pure system work).
        """
        ...

    def scheduler_priority(self) -> Optional[int]:
        """The highest numeric priority over the containers the entity
        is currently multiplexed over, or None when there are none.

        For a thread those are its scheduler binding (section 4.3); for
        a network thread, the live containers with packets waiting
        behind its head.  On None, schedulers use the charge
        container's own priority.
        """
        ...


class Scheduler(abc.ABC):
    """Abstract CPU scheduling policy.

    Concrete schedulers are passive: the kernel calls
    :meth:`pick_for_cpu` when a core needs work, :meth:`charge` and
    :meth:`on_slice_end` after every slice, and :meth:`window_roll` on
    its accounting-window timer.
    """

    #: Default time slice handed to a picked entity, microseconds.
    quantum_us: float = 1_000.0

    #: Cap-accounting window length, microseconds.  Hard CPU limits
    #: (Fig. 12/13's sand-boxes) are enforced at this granularity.
    window_us: float = 10_000.0

    #: Short policy label carried on ``sched.charge`` trace records.
    policy_name: str = "scheduler"

    #: TraceBus attached by the kernel after construction; None when the
    #: scheduler runs untraced (stand-alone unit tests).
    trace = None

    def __init__(self) -> None:
        #: id(entity) -> entity, in attach order.  Membership is by
        #: identity, O(1) either way; iteration order is attach order,
        #: which lottery draws and tie-breaks depend on.
        self._entities: dict[int, Schedulable] = {}
        #: Cumulative CPU this scheduler has been told about via
        #: :meth:`charge` (positive amounts against a real container).
        #: The charging-conservation sanitizer reconciles this against
        #: the container ledgers at end of run: a policy that drops or
        #: double-counts a charge skews shares/caps even when the
        #: ledgers themselves look right.  Implementations must call
        #: :meth:`note_charge` from their ``charge``.
        self.charged_us_total = 0.0

    def note_charge(
        self,
        container: Optional[ResourceContainer],
        amount_us: float,
        now: float = 0.0,
    ) -> None:
        """Record one charge in the reconciliation counter (and, when a
        trace bus is attached and active, publish a ``sched.charge``
        record stamped at ``now``)."""
        if container is not None and amount_us > 0.0:
            self.charged_us_total += amount_us
            trace = self.trace
            if trace is not None and trace.active:
                trace.publish(
                    now,
                    "sched.charge",
                    policy=self.policy_name,
                    container=container.name,
                    amount_us=amount_us,
                )

    # -- membership ------------------------------------------------------

    def attach(self, entity: Schedulable) -> None:
        """Make an entity eligible for scheduling."""
        eid = id(entity)
        if eid not in self._entities:
            self._entities[eid] = entity
            self.on_attach(entity)

    def detach(self, entity: Schedulable) -> None:
        """Remove an entity (thread exit)."""
        self._entities.pop(id(entity), None)

    def entities(self) -> list[Schedulable]:
        """All attached entities (runnable or not), in attach order."""
        return list(self._entities.values())

    # -- policy hooks ------------------------------------------------------

    def on_attach(self, entity: Schedulable) -> None:
        """Policy-specific initialisation for a new entity."""

    def on_wakeup(self, entity: Schedulable, now: float) -> None:
        """Entity transitioned blocked -> runnable."""

    @abc.abstractmethod
    def pick_for_cpu(
        self, now: float, cpu: int, exclude: Optional[set] = None
    ) -> Optional[Schedulable]:
        """Choose the next entity for core ``cpu``, or None if nothing
        is eligible.

        ``exclude`` is a set of id()s of entities already running on
        other cores; they must not be selected again.  Schedulers with
        per-CPU run queues (``ContainerScheduler``) dequeue the winner
        until :meth:`on_slice_end` re-queues it; single-queue policies
        (timeshare, lottery) ignore ``cpu`` and rely on ``exclude``.
        """

    def on_slice_end(self, entity: Schedulable, now: float) -> None:
        """The entity's slice finished or was preempted on its core.

        Dequeue-on-dispatch schedulers re-queue the entity here (it was
        removed from the ready structures by :meth:`pick_for_cpu`).
        The default is a no-op: single-queue schedulers never removed
        it.  The dispatcher calls this after :meth:`charge`, before the
        entity advances its work state.
        """

    def note_container_destroyed(self, container: ResourceContainer) -> None:
        """A container was destroyed (manager ``on_destroy`` hook);
        drop any per-container bookkeeping.  Default: no-op."""

    @abc.abstractmethod
    def charge(
        self,
        entity: Schedulable,
        container: Optional[ResourceContainer],
        amount_us: float,
        now: float,
    ) -> None:
        """Record that ``entity`` consumed CPU against ``container``."""

    def window_roll(self, now: float) -> None:
        """Advance the cap-accounting window (default: nothing)."""

    def slice_bound_us(self, container: Optional[ResourceContainer]) -> float:
        """Upper bound on the length of a slice charged to ``container``
        (the dispatched entity's ``charge_container()``).

        Schedulers enforcing windowed CPU caps return the remaining
        budget so a slice never overshoots the cap; others return inf.
        """
        return float("inf")
