"""The CPU dispatcher (uniprocessor by default, SMP-capable).

Each core runs, in strict precedence order:

1. **Hardware-interrupt jobs** -- per-packet interrupt handling (and, in
   the LRP/RC modes, early demultiplexing).  Never preempted.  All
   interrupts are delivered to one configurable core
   (``KernelConfig.irq_core``, default core 0 as on the paper's
   testbed-era hardware).
2. **Software-interrupt jobs** -- full protocol processing in the
   unmodified (SOFTIRQ) kernel.  IRQ core only; preempted only by
   hardware interrupts; always beats threads, which is exactly the
   receive-livelock hazard the paper discusses (section 3.2).
3. **Schedulable entities** -- user threads and kernel network threads,
   chosen by the pluggable scheduler.  Entity slices are preempted by
   interrupt arrivals (on the IRQ core) and (optionally) by wakeups of
   strictly higher-priority entities.

All CPU consumption flows through :meth:`_finish_slice`, which charges
the container captured at slice start, updates the scheduler, and
advances the entity's work state.  This single choke point is what makes
the accounting invariants testable: charged time + unaccounted interrupt
time + idle time == elapsed time * cores.

Container-ledger charges are *batched*: :meth:`_account` accumulates
them per (container, network-flag) and :meth:`flush_charges` books the
coalesced totals -- before every scheduler pick, at preemption, at
sanitizer sweeps, at the ``get_usage`` syscall, and when the simulation
loop exits.  Every reader of a ledger therefore sees exactly the totals
an unbatched dispatcher would have produced, while runs of same-
container slices between picks pay the ancestor-walk once.  The
:class:`SystemAccounting` scalar counters and the scheduler's
``charge()`` (which drives pass values) stay per-slice.

The paper's experiments all run on one CPU; ``n_cpus > 1`` implements
the multiprocessor variant its section 2 mentions ("Event-driven servers
designed for multiprocessors use one thread per processor").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.container import ResourceContainer
from repro.kernel.accounting import SystemAccounting

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: Tolerance for floating-point work accounting.
EPSILON = 1e-9

#: Bound on the software-interrupt (IP input) queue, as in BSD's
#: ipintrq.  Overflow drops happen after hardware-interrupt cost only.
DEFAULT_SOFTIRQ_QUEUE_LIMIT = 512


@dataclass(slots=True)
class InterruptJob:
    """A unit of interrupt-context work."""

    cost_us: float
    #: Semantic action run (for free) when the work completes.
    action: Callable[[], None]
    #: Container charged, or None for unaccounted system work.
    charge: Optional[ResourceContainer] = None
    note: str = ""


@dataclass(slots=True)
class _RunSlice:
    """The unit of CPU occupancy currently in flight on one core.

    Instances are drawn from a free list (see ``CPU._alloc_slice``) and
    recycled when the slice finishes or is preempted: holding one past
    the completion of its slice is not supported.  ``event`` is the
    queue entry of the slice's completion, which ``_preempt_entity``
    cancels.  Queue entries are never reused (:mod:`repro.sim.events`),
    so a cancel through a recycled record's old entry is a no-op.
    """

    kind: str = ""  # "hard", "soft", or "entity"
    start: float = 0.0
    planned_us: float = 0.0
    #: Portion of planned_us that advances entity work (the rest is
    #: context-switch overhead).
    work_us: float = 0.0
    event: Optional[list] = None
    job: Optional[InterruptJob] = None
    entity: object = None
    charge: Optional[ResourceContainer] = None
    charge_network: bool = False


class _Core:
    """One processor's dispatch state."""

    __slots__ = ("index", "current", "last_entity")

    def __init__(self, index: int) -> None:
        self.index = index
        self.current: Optional[_RunSlice] = None
        self.last_entity: object = None


class CPU:
    """One or more simulated cores with interrupt precedence/preemption."""

    def __init__(self, kernel: "Kernel", n_cpus: int = 1) -> None:
        if n_cpus < 1:
            raise ValueError(f"need at least one CPU, got {n_cpus}")
        self.kernel = kernel
        self.sim = kernel.sim
        self.n_cpus = n_cpus
        self.cores = [_Core(i) for i in range(n_cpus)]
        irq_core = getattr(kernel.config, "irq_core", 0)
        if not 0 <= irq_core < n_cpus:
            raise ValueError(
                f"irq_core {irq_core} out of range for {n_cpus} CPU(s)"
            )
        #: Core that services interrupt delivery (KernelConfig.irq_core).
        self.irq_core = irq_core
        #: Number of cores with no slice in flight.  Maintained at the
        #: two occupancy transitions (slice start, slice end/preempt) so
        #: the wakeup and dispatch hot paths never scan the core list.
        self._idle_cores = n_cpus
        self.accounting = SystemAccounting()
        #: Busy core-microseconds per core index, booked alongside every
        #: slice in :meth:`_account`; sums to ``accounting.total_cpu_us``.
        self.core_busy_us = [0.0] * n_cpus
        self.hard_queue: deque[InterruptJob] = deque()
        self.soft_queue: deque[InterruptJob] = deque()
        self.soft_queue_limit = DEFAULT_SOFTIRQ_QUEUE_LIMIT
        self.soft_drops = 0
        #: Entities currently occupying a core (the pick exclude set).
        self._running_ids: set[int] = set()
        self._dispatch_scheduled = False
        #: Coalesced, not-yet-booked container charges:
        #: (container, network?) -> accumulated microseconds.  Insertion
        #: order is schedule order, so flushing is deterministic.
        self._pending_charges: dict[tuple, float] = {}
        #: Free list of recycled _RunSlice records.
        self._slice_pool: list[_RunSlice] = []
        #: Coalesced ledger bookings performed by flush_charges().
        self.charge_flushes = 0
        #: Observational conservation checker
        #: (:class:`repro.analysis.sanitizer.ChargingSanitizer`); called
        #: from :meth:`_account` after every booking.  None in normal
        #: runs, so the hook costs one attribute test per slice.
        self.sanitizer = None
        # Settle pending charges whenever the dispatch loop exits, so
        # post-run readers (billing, metrics, reports) see final ledgers,
        # and before any container is destroyed, so no coalesced amount
        # lands on a dead (detached) container.
        self.sim.flush_hooks.append(self.flush_charges)
        kernel.containers.before_destroy.append(self._flush_before_destroy)

    def _flush_before_destroy(self, container: ResourceContainer) -> None:
        self.flush_charges()

    # ------------------------------------------------------------------
    # Work submission
    # ------------------------------------------------------------------

    def post_hard_interrupt(self, job: InterruptJob) -> None:
        """Queue hardware-interrupt work; preempts core 0's entity slice."""
        self.hard_queue.append(job)
        self._interrupt_pressure()

    def post_soft_interrupt(self, job: InterruptJob) -> bool:
        """Queue software-interrupt work; False if the bounded queue is
        full (the packet is dropped having cost only the hard interrupt)."""
        if len(self.soft_queue) >= self.soft_queue_limit:
            self.soft_drops += 1
            return False
        self.soft_queue.append(job)
        self._interrupt_pressure()
        return True

    def notify_ready(self, entity: object = None) -> None:
        """An entity became runnable (wakeup, new packet, new thread)."""
        if self._idle_cores:
            self._schedule_dispatch()
            return
        if not self.kernel.config.preemptive or entity is None:
            return
        if id(entity) in self._running_ids:
            return
        priority = self._priority_of(entity)
        victim: Optional[_Core] = None
        victim_priority = priority
        for core in self.cores:
            run = core.current
            if run is None or run.kind != "entity":
                continue
            running_priority = self._priority_of(run.entity)
            if running_priority < victim_priority:
                victim_priority = running_priority
                victim = core
        if victim is not None:
            self._preempt_entity(victim)
            self._schedule_dispatch()

    def _interrupt_pressure(self) -> None:
        """Interrupt work always lands on the configured IRQ core."""
        irq = self.cores[self.irq_core]
        if irq.current is None:
            self._schedule_dispatch()
        elif irq.current.kind == "entity":
            self._preempt_entity(irq)
            self._schedule_dispatch()
        # hard/soft slices run to completion; dispatch follows them.

    # ------------------------------------------------------------------
    # Slice records (pooled)
    # ------------------------------------------------------------------

    def _alloc_slice(
        self,
        kind: str,
        start: float,
        planned_us: float,
        work_us: float,
        event: list,
        job: Optional[InterruptJob],
        entity: object,
        charge: Optional[ResourceContainer],
        charge_network: bool,
    ) -> _RunSlice:
        pool = self._slice_pool
        if pool:
            run = pool.pop()
            run.kind = kind
            run.start = start
            run.planned_us = planned_us
            run.work_us = work_us
            run.event = event
            run.job = job
            run.entity = entity
            run.charge = charge
            run.charge_network = charge_network
            return run
        return _RunSlice(
            kind=kind,
            start=start,
            planned_us=planned_us,
            work_us=work_us,
            event=event,
            job=job,
            entity=entity,
            charge=charge,
            charge_network=charge_network,
        )

    def _release_slice(self, run: _RunSlice) -> None:
        # Drop object references so recycled records keep nothing alive.
        run.event = None
        run.job = None
        run.entity = None
        run.charge = None
        self._slice_pool.append(run)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _schedule_dispatch(self) -> None:
        """Run the dispatcher as an immediate event.

        Deferring by zero time (rather than recursing) keeps the call
        graph flat when actions post more work, and gives every wakeup
        in the same instant a chance to land before selection.
        """
        if self._dispatch_scheduled:
            return
        if self._idle_cores == 0:
            return
        self._dispatch_scheduled = True
        self.sim.after(0.0, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        sim = self.sim
        now = sim.now
        # The IRQ core services interrupts first.
        irq = self.cores[self.irq_core]
        while irq.current is None and (self.hard_queue or self.soft_queue):
            if self.hard_queue:
                self._start_interrupt(irq, "hard", self.hard_queue.popleft())
            else:
                self._start_interrupt(irq, "soft", self.soft_queue.popleft())
        # The picks read window usage for cap enforcement; settle any
        # coalesced charges once up front so they see exact ledgers
        # (nothing inside the fill loop books further charges).
        if self._pending_charges:
            self.flush_charges()
        # Fill every idle core from the scheduler.
        scheduler = self.kernel.scheduler
        for core in self.cores:
            if core.current is not None:
                continue
            entity = scheduler.pick_for_cpu(
                now, core.index, exclude=self._running_ids
            )
            if entity is None:
                continue
            work = entity.work_remaining_us()
            if work <= EPSILON:
                # Entity with an immediate action point (zero-cost phase).
                self.kernel.entity_action(entity)
                scheduler.on_slice_end(entity, now)
                self._schedule_dispatch()
                continue
            charge = entity.charge_container()
            quantum = scheduler.quantum_us
            bound = scheduler.slice_bound_us(charge)
            slice_work = min(work, quantum, max(bound, 1.0))
            switch_cost = 0.0
            if (
                entity is not core.last_entity
                and self.kernel.config.context_switch_cost
            ):
                switch_cost = self._switch_cost(core.last_entity, entity)
                self.accounting.context_switches += 1
            planned = slice_work + switch_cost
            if sim.trace.active:
                sim.trace.publish(
                    now,
                    "sched.dispatch",
                    core=core.index,
                    entity=getattr(entity, "name", ""),
                    container=charge.name if charge is not None else None,
                    planned_us=planned,
                    switch_us=switch_cost,
                )
            event = sim.after(planned, self._finish_slice, core)
            core.current = self._alloc_slice(
                "entity",
                now,
                planned,
                slice_work,
                event,
                None,
                entity,
                charge,
                self.kernel.is_net_thread(entity),
            )
            core.last_entity = entity
            self._idle_cores -= 1
            self._running_ids.add(id(entity))

    def _start_interrupt(self, core: _Core, kind: str, job: InterruptJob) -> None:
        event = self.sim.after(job.cost_us, self._finish_slice, core)
        self._idle_cores -= 1
        core.current = self._alloc_slice(
            kind,
            self.sim.now,
            job.cost_us,
            job.cost_us,
            event,
            job,
            None,
            job.charge,
            False,
        )

    # ------------------------------------------------------------------
    # Completion / preemption
    # ------------------------------------------------------------------

    def _finish_slice(self, core: _Core) -> None:
        run = core.current
        if run is None:  # pragma: no cover - defensive
            return
        core.current = None
        self._idle_cores += 1
        now = self.sim.now
        self._account(run, run.planned_us, interrupt=run.kind != "entity", core=core)
        if run.kind == "entity":
            entity = run.entity
            self._running_ids.discard(id(entity))
            scheduler = self.kernel.scheduler
            scheduler.charge(entity, run.charge, run.planned_us, now)
            scheduler.on_slice_end(entity, now)
            work_us = run.work_us
            self._release_slice(run)
            if entity.advance(work_us):
                self.kernel.entity_action(entity)
        else:
            job = run.job
            assert job is not None
            self._release_slice(run)
            job.action()
        self._schedule_dispatch()

    def _preempt_entity(self, core: _Core) -> None:
        """Stop the in-flight entity slice, charging only elapsed time."""
        run = core.current
        if run is None or run.kind != "entity":
            return
        core.current = None
        self._idle_cores += 1
        now = self.sim.now
        self.sim.cancel(run.event)
        self._running_ids.discard(id(run.entity))
        elapsed = now - run.start
        if self.sim.trace.active:
            self.sim.trace.publish(
                now,
                "sched.preempt",
                core=core.index,
                entity=getattr(run.entity, "name", ""),
                container=run.charge.name if run.charge is not None else None,
                ran_us=elapsed,
                planned_us=run.planned_us,
            )
        entity = run.entity
        scheduler = self.kernel.scheduler
        if elapsed > EPSILON:
            self._account(run, elapsed, interrupt=False, core=core)
            self.flush_charges()
            scheduler.charge(entity, run.charge, elapsed, now)
            scheduler.on_slice_end(entity, now)
            # Context-switch overhead is paid first; only time beyond it
            # advances the entity's work.
            switch_cost = run.planned_us - run.work_us
            progress = max(0.0, elapsed - switch_cost)
            self._release_slice(run)
            if progress > EPSILON and entity.advance(progress):
                self.kernel.entity_action(entity)
        else:
            self._release_slice(run)
            scheduler.on_slice_end(entity, now)

    def _account(
        self, run: _RunSlice, amount_us: float, *, interrupt: bool, core: _Core
    ) -> None:
        accounting = self.accounting
        accounting.total_cpu_us += amount_us
        self.core_busy_us[core.index] += amount_us
        if interrupt:
            accounting.interrupt_cpu_us += amount_us
        trace = self.sim.trace
        if trace.active:
            host = self.kernel.host_name
            if host is None:
                trace.publish(
                    self.sim.now,
                    "cpu.slice",
                    kind=run.kind,
                    core=core.index,
                    amount_us=amount_us,
                    charge=run.charge.name if run.charge is not None else None,
                    network=run.charge_network or interrupt,
                    entity=getattr(
                        run.entity, "name", run.job.note if run.job else ""
                    ),
                    phase=self._phase_of(run),
                )
            else:
                # Cluster runs tag every slice with its host so shared-sim
                # observability can keep per-host lanes apart.  Kept as a
                # separate publish so single-host traces stay byte-stable.
                trace.publish(
                    self.sim.now,
                    "cpu.slice",
                    kind=run.kind,
                    core=core.index,
                    host=host,
                    amount_us=amount_us,
                    charge=run.charge.name if run.charge is not None else None,
                    network=run.charge_network or interrupt,
                    entity=getattr(
                        run.entity, "name", run.job.note if run.job else ""
                    ),
                    phase=self._phase_of(run),
                )
        charge = run.charge
        if charge is not None:
            # Defer the ledger walk: coalesce with any other slice for
            # the same (container, flavour) booked since the last flush.
            key = (charge, run.charge_network or interrupt)
            pending = self._pending_charges
            pending[key] = pending.get(key, 0.0) + amount_us
        else:
            accounting.unaccounted_cpu_us += amount_us
        if self.sanitizer is not None:
            self.sanitizer.on_slice(
                run, amount_us, interrupt=interrupt, core=core.index
            )

    def flush_charges(self) -> None:
        """Book all coalesced charges into the container ledgers.

        Called before scheduler picks, at preemption, from sanitizer
        sweeps, from the ``get_usage`` syscall, before window rolls, and
        when the simulation loop exits -- the points at which ledger
        state becomes observable.  Between those points, consecutive
        slices for the same (container, network-flag) collapse into a
        single ``charge_cpu`` ancestor walk.
        """
        pending = self._pending_charges
        if not pending:
            return
        self.charge_flushes += 1
        for (container, network), amount_us in pending.items():
            container.charge_cpu(
                amount_us, network=network, syscall=not network
            )
        pending.clear()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _phase_of(run: _RunSlice) -> str:
        """Finest deterministic label for what this slice was doing.

        Only computed when tracing is active -- never on the hot path of
        an unobserved run.
        """
        if run.kind != "entity":
            return run.job.note or run.kind if run.job else run.kind
        phase = getattr(run.entity, "profile_phase", None)
        if phase is not None:
            return phase()
        return run.kind

    def _switch_cost(self, previous: object, entity: object) -> float:
        """Process switches pay the full cost; kernel-thread and
        intra-process switches are cheap (no address-space change)."""
        costs = self.kernel.costs
        if previous is None:
            return costs.context_switch_kernel
        prev_proc = getattr(previous, "process", None)
        new_proc = getattr(entity, "process", None)
        if self.kernel.is_net_thread(previous) or self.kernel.is_net_thread(entity):
            return costs.context_switch_kernel
        if prev_proc is not None and prev_proc is new_proc:
            return costs.context_switch_kernel
        return costs.context_switch

    def _priority_of(self, entity: object) -> int:
        priority = entity.scheduler_priority()
        if priority is not None:
            return priority
        container = entity.charge_container()
        return container.attrs.numeric_priority if container is not None else 0

    # -- compatibility / introspection ------------------------------------

    @property
    def current(self) -> Optional[_RunSlice]:
        """Core 0's in-flight slice (uniprocessor-era accessor)."""
        return self.cores[0].current

    @property
    def busy(self) -> bool:
        """True while any core is occupied."""
        return self._idle_cores < self.n_cpus

    @property
    def idle_cores(self) -> int:
        """Cores with nothing dispatched right now (telemetry probe)."""
        return self._idle_cores

    def idle_time(self, elapsed_us: float) -> float:
        """Aggregate idle core-time given elapsed simulation time."""
        return max(0.0, elapsed_us * self.n_cpus - self.accounting.total_cpu_us)
