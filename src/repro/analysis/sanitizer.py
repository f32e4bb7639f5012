"""Runtime charging-conservation sanitizer.

The paper's accounting claim -- every unit of kernel work is charged to
exactly one explicit resource principal -- reduces, in this simulation,
to a small set of checkable invariants around the CPU dispatcher's
single accounting choke point (:meth:`repro.kernel.cpu.CPU._account`,
reached from ``_finish_slice`` and ``_preempt_entity``):

* **slice sanity** -- no slice charges a negative amount, and no slice
  charges more CPU than the wall (simulated) time it occupied a core;
* **liveness** -- no charge lands on a destroyed container;
* **conservation** -- container-charged CPU + unaccounted interrupt
  CPU equals total busy CPU, and total busy CPU never exceeds elapsed
  simulated time x cores (idle time is non-negative);
* **ledger integrity** -- no :class:`ResourceUsage` field is negative
  and the network/syscall sub-ledgers never exceed the CPU total;
* **scheduler reconciliation** -- the amounts the scheduler saw via
  ``charge()`` (which drive stride pass values and window caps) match
  the amounts container ledgers actually booked for entity slices.

The sanitizer is strictly observational: it reads dispatcher state from
inside the existing accounting path and schedules no events, so a
sanitized run is byte-identical to an unsanitized one.  It is opt-in --
``Simulation(sanitize=True)``, ``Host(sanitize=True)``, or the
``REPRO_SANITIZE=1`` environment variable (which reaches the worker
processes of a sweep and the hosts constructed inside point runners).

Violations are collected, not raised, so one bad slice cannot mask the
next; each carries the event context (simulated time, slice kind,
entity/job, container, amount) needed to find the offending path.
``python -m repro sanitize <experiment>`` runs a whole experiment this
way and reports per-host summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.container import ContainerState, ResourceContainer
from repro.kernel.accounting import DIMENSIONS, check_dimension
from repro.sim.engine import SANITIZE_ENV, env_flag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: Absolute slop per comparison; scaled by magnitude where totals grow.
EPS = 1e-6

#: Full-ledger sweeps are O(live containers); run one every N slices.
SWEEP_EVERY = 512

#: The checks that reconcile a dimension's flow at runtime, beyond the
#: ledger sweep.  Keys must be declared dimensions.
_RECONCILERS = {
    "cpu": (
        "busy-split",
        "core-busy-split",
        "ledger-conservation",
        "accounting-total",
        "scheduler-reconcile",
    ),
    "disk": (
        "disk-busy-split",
        "disk-ledger-conservation",
    ),
}
for _dimension in _RECONCILERS:
    check_dimension(_dimension)

#: Resource dimension -> the check ids that reconcile it at runtime.
#: This is the dynamic half of the charging surface: a CHG2xx consuming
#: primitive counts as metered when its dimension's entry is non-empty.
#: ``ledger-integrity`` (the ResourceUsage.validate() sweep over every
#: live container) covers every dimension that has ledger fields; a
#: dimension with none (``fd``) is unmetered.
DIMENSION_CHECKS: dict = {
    dimension: _RECONCILERS.get(dimension, ())
    + (("ledger-integrity",) if names else ())
    for dimension, names in DIMENSIONS.items()
}

#: Sanitizers installed in this process, in construction order.  The
#: CLI drains this after an experiment run to report on hosts it never
#: held a reference to (point runners build hosts internally).
_INSTALLED: list["ChargingSanitizer"] = []


def env_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for sanitized kernels (read by
    :func:`repro.sim.engine.env_flag`, which rejects values other than
    ``""``, ``"0"`` and ``"1"``)."""
    return env_flag(SANITIZE_ENV)


def installed() -> list["ChargingSanitizer"]:
    """Sanitizers created so far in this process (oldest first)."""
    return list(_INSTALLED)


def drain_installed() -> list["ChargingSanitizer"]:
    """Return and forget the process's sanitizers (CLI reporting)."""
    out = list(_INSTALLED)
    _INSTALLED.clear()
    return out


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with the context needed to debug it."""

    time_us: float
    check: str
    message: str
    #: (key, value) context pairs: slice kind, entity, container, amounts.
    context: tuple = ()

    def render(self) -> str:
        ctx = ", ".join(f"{k}={v}" for k, v in self.context)
        return f"[t={self.time_us:.3f}us] {self.check}: {self.message}" + (
            f" ({ctx})" if ctx else ""
        )


def _tol(magnitude: float) -> float:
    """Comparison tolerance scaled to the magnitude of the totals."""
    return EPS * max(1.0, abs(magnitude))


class ChargingSanitizer:
    """Observational conservation checker for one kernel.

    Mirrors every amount flowing through ``CPU._account`` into its own
    accumulators and reconciles them -- per slice against the
    :class:`SystemAccounting` counters, periodically and at end of run
    against the full container-ledger population (live containers plus
    the CPU totals of containers destroyed since install).
    """

    def __init__(self, kernel: "Kernel", sweep_every: int = SWEEP_EVERY) -> None:
        self.kernel = kernel
        self.sweep_every = sweep_every
        self.violations: list[Violation] = []
        self.slices_checked = 0
        self.sweeps = 0
        self.finished = False
        # Mirrors of the dispatcher's accounting, accumulated slice by
        # slice in the same order, so drift means a charge bypassed (or
        # double-entered) the choke point.
        self._total_us = 0.0
        self._interrupt_us = 0.0
        self._unaccounted_us = 0.0
        #: Per-core busy mirrors (SMP conservation: the per-core splits
        #: must recompose to the machine-wide total, and no single core
        #: can be busy longer than elapsed time).
        self._core_busy_us = [0.0] * kernel.cpu.n_cpus
        #: CPU booked to container ledgers from entity slices (the
        #: amounts the scheduler must also have seen via charge()).
        self._charged_entity_us = 0.0
        #: CPU booked to container ledgers from interrupt slices
        #: (RC/LRP protocol work run in interrupt context).
        self._charged_interrupt_us = 0.0
        #: CPU totals of containers destroyed after install.
        self._destroyed_cpu_us = 0.0
        self._destroyed_count = 0
        # Disk mirrors: every completed request's service time, split by
        # whether it had a charging container (see on_disk_request).
        self.disk_requests_checked = 0
        self._disk_service_us = 0.0
        self._disk_charged_us = 0.0
        self._disk_unaccounted_us = 0.0
        self._destroyed_disk_us = 0.0
        # Baselines: a sanitizer may be installed on a warm kernel.
        acct = kernel.cpu.accounting
        self._base_total = acct.total_cpu_us
        self._base_interrupt = acct.interrupt_cpu_us
        self._base_unaccounted = acct.unaccounted_cpu_us
        self._base_core_busy = list(kernel.cpu.core_busy_us)
        self._base_ledger = self._live_ledger_cpu_us()
        self._base_sched_charged = getattr(
            kernel.scheduler, "charged_us_total", None
        )
        disk = getattr(kernel, "disk", None)
        self._base_disk_busy = disk.busy_us if disk is not None else 0.0
        self._base_disk_unaccounted = (
            disk.unaccounted_us if disk is not None else 0.0
        )
        self._base_disk_ledger = self._live_ledger_disk_us()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> "ChargingSanitizer":
        """Attach to the kernel's dispatcher, disk, and container manager."""
        self.kernel.cpu.sanitizer = self
        disk = getattr(self.kernel, "disk", None)
        if disk is not None:
            disk.sanitizer = self
        self.kernel.containers.on_destroy.append(self._on_destroy)
        _INSTALLED.append(self)
        return self

    def _on_destroy(self, container: ResourceContainer) -> None:
        self._destroyed_cpu_us += container.usage.cpu_us
        self._destroyed_disk_us += container.usage.disk_us
        self._destroyed_count += 1

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def _violate(self, check: str, message: str, *context) -> None:
        self.violations.append(
            Violation(
                time_us=self.kernel.sim.now,
                check=check,
                message=message,
                context=tuple(context),
            )
        )

    def on_slice(
        self, run, amount_us: float, interrupt: bool, core: int = 0
    ) -> None:
        """Called by ``CPU._account`` after it booked one slice.

        ``run`` is the dispatcher's ``_RunSlice``; its fields provide
        the event context for any violation raised here.  ``core`` is
        the index of the core the slice occupied.
        """
        self.slices_checked += 1
        now = self.kernel.sim.now
        charge = run.charge
        context = (
            ("kind", run.kind),
            ("entity", getattr(run.entity, "name", None)
             or (run.job.note if run.job else "")),
            ("container", charge.name if charge is not None else None),
            ("amount_us", round(amount_us, 6)),
        )
        if amount_us < -EPS:
            self._violate(
                "negative-slice",
                f"slice charged a negative amount ({amount_us})",
                *context,
            )
        occupancy = now - run.start
        if amount_us > occupancy + _tol(occupancy):
            self._violate(
                "overcharged-slice",
                f"slice charged {amount_us:.6f}us but occupied a core for "
                f"only {occupancy:.6f}us",
                *context,
            )
        if charge is not None and charge.state is ContainerState.DESTROYED:
            self._violate(
                "dead-container-charge",
                f"charge landed on destroyed container {charge.name!r}",
                *context,
            )
        # Mirror the booking.
        self._total_us += amount_us
        self._core_busy_us[core] += amount_us
        if interrupt:
            self._interrupt_us += amount_us
        if charge is None:
            self._unaccounted_us += amount_us
        elif interrupt:
            self._charged_interrupt_us += amount_us
        else:
            self._charged_entity_us += amount_us
        # Reconcile against the SystemAccounting counters the dispatcher
        # just updated: identical amounts in identical order, so any
        # drift means time entered the ledgers around the choke point.
        acct = self.kernel.cpu.accounting
        self._compare("accounting-total", acct.total_cpu_us,
                      self._base_total + self._total_us, context)
        self._compare("accounting-interrupt", acct.interrupt_cpu_us,
                      self._base_interrupt + self._interrupt_us, context)
        self._compare("accounting-unaccounted", acct.unaccounted_cpu_us,
                      self._base_unaccounted + self._unaccounted_us, context)
        self._compare("accounting-core-busy",
                      self.kernel.cpu.core_busy_us[core],
                      self._base_core_busy[core] + self._core_busy_us[core],
                      context)
        if self.sweep_every and self.slices_checked % self.sweep_every == 0:
            self.sweep()

    def on_disk_request(self, device, request) -> None:
        """Called by ``DiskDevice._complete`` after it charged one request.

        Mirrors service time per principal and reconciles against the
        device's busy counter, exactly as ``on_slice`` does for CPU: the
        device's completion path is the disk's single accounting choke
        point.
        """
        self.disk_requests_checked += 1
        charge = request.container
        context = (
            ("device", device.name),
            ("rid", request.rid),
            ("path", request.path),
            ("container", charge.name if charge is not None else None),
            ("service_us", round(request.service_us, 6)),
        )
        if request.service_us < -EPS:
            self._violate(
                "negative-disk-service",
                f"request serviced for a negative time ({request.service_us})",
                *context,
            )
        expected_service = device.service_time_us(request.size_bytes)
        if abs(request.service_us - expected_service) > _tol(expected_service):
            self._violate(
                "disk-service-model",
                f"service {request.service_us:.6f}us does not match the "
                f"device model's {expected_service:.6f}us for "
                f"{request.size_bytes} bytes",
                *context,
            )
        if request.start_us is not None and request.complete_us is not None:
            occupancy = request.complete_us - request.start_us
            if abs(occupancy - request.service_us) > _tol(occupancy):
                self._violate(
                    "disk-occupancy",
                    f"request occupied the device for {occupancy:.6f}us but "
                    f"charged {request.service_us:.6f}us",
                    *context,
                )
        if charge is not None and charge.state is ContainerState.DESTROYED:
            self._violate(
                "dead-container-disk-charge",
                f"disk charge landed on destroyed container {charge.name!r}",
                *context,
            )
        # Mirror the booking and reconcile the device counters.
        self._disk_service_us += request.service_us
        if charge is None:
            self._disk_unaccounted_us += request.service_us
        else:
            self._disk_charged_us += request.service_us
        self._compare("disk-busy", device.busy_us,
                      self._base_disk_busy + self._disk_service_us, context)
        self._compare(
            "disk-unaccounted", device.unaccounted_us,
            self._base_disk_unaccounted + self._disk_unaccounted_us, context,
        )

    def _compare(
        self, check: str, actual: float, expected: float, context=()
    ) -> None:
        if abs(actual - expected) > _tol(expected):
            self._violate(
                check,
                f"counter={actual!r} but slice-mirror={expected!r} "
                f"(drift {actual - expected:+.9f}us)",
                *context,
            )

    # ------------------------------------------------------------------
    # Global reconciliation
    # ------------------------------------------------------------------

    def _live_ledger_cpu_us(self) -> float:
        return sum(
            c.usage.cpu_us for c in self.kernel.containers.all_containers()
        )

    def _live_ledger_disk_us(self) -> float:
        return sum(
            c.usage.disk_us for c in self.kernel.containers.all_containers()
        )

    def sweep(self) -> None:
        """Full-population reconcile: ledgers vs mirrored charges."""
        self.sweeps += 1
        # The dispatcher batches ledger bookings between scheduler
        # picks; settle them so the ledgers reflect every mirrored
        # slice (the flush is itself one of the defined flush points).
        self.kernel.cpu.flush_charges()
        now = self.kernel.sim.now
        # Every ledger field must be sane on every live container.
        for container in self.kernel.containers.all_containers():
            problems = container.usage.validate()
            if problems:
                self._violate(
                    "ledger-integrity",
                    f"container {container.name!r}: {'; '.join(problems)}",
                    ("container", container.name),
                )
        # Charged CPU is conserved: what the ledgers hold now is what
        # they held at install plus every charge we mirrored, minus
        # nothing (destroyed containers' totals are carried over).
        live = self._live_ledger_cpu_us()
        charged = self._charged_entity_us + self._charged_interrupt_us
        self._compare(
            "ledger-conservation",
            live + self._destroyed_cpu_us,
            self._base_ledger + charged,
            (("live_containers",
              len(self.kernel.containers.all_containers())),
             ("destroyed", self._destroyed_count)),
        )
        # charged + unaccounted == busy: nothing vanished between the
        # dispatcher's total and the per-principal splits.
        self._compare(
            "busy-split",
            self._charged_entity_us + self._charged_interrupt_us
            + self._unaccounted_us,
            self._total_us,
        )
        # Busy CPU cannot exceed wall capacity (idle must be >= 0).
        acct = self.kernel.cpu.accounting
        capacity = now * self.kernel.cpu.n_cpus
        if acct.total_cpu_us > capacity + _tol(capacity):
            self._violate(
                "overcommitted-cpu",
                f"busy CPU {acct.total_cpu_us:.6f}us exceeds elapsed "
                f"capacity {capacity:.6f}us "
                f"({self.kernel.cpu.n_cpus} core(s))",
            )
        # Per-core split: the per-core busy mirrors must recompose to
        # the machine-wide total (so per-core busy + ledgers +
        # unaccounted + idle tile elapsed * cores exactly), and no one
        # core can be busy longer than elapsed time.
        self._compare(
            "core-busy-split",
            sum(self._core_busy_us),
            self._total_us,
        )
        for index, busy in enumerate(self._core_busy_us):
            base = self._base_core_busy[index]
            if base + busy > now + _tol(now):
                self._violate(
                    "overcommitted-core",
                    f"core {index} busy {base + busy:.6f}us exceeds "
                    f"elapsed time {now:.6f}us",
                )
        # Disk conservation: what the disk_us ledgers hold is what they
        # held at install plus every charged completion we mirrored, and
        # the device's busy split re-composes from the same mirrors.
        disk = getattr(self.kernel, "disk", None)
        if disk is not None:
            self._compare(
                "disk-ledger-conservation",
                self._live_ledger_disk_us() + self._destroyed_disk_us,
                self._base_disk_ledger + self._disk_charged_us,
                (("requests", self.disk_requests_checked),),
            )
            self._compare(
                "disk-busy-split",
                self._disk_charged_us + self._disk_unaccounted_us,
                self._disk_service_us,
            )
            # A single device cannot be busy longer than elapsed time.
            if disk.busy_us > now + _tol(now):
                self._violate(
                    "overcommitted-disk",
                    f"device busy {disk.busy_us:.6f}us exceeds elapsed "
                    f"time {now:.6f}us",
                )

    def finish(self) -> list[Violation]:
        """End-of-run reconcile; returns all collected violations.

        Adds the checks that only make sense once the run is quiescent:
        the scheduler's cumulative ``charge()`` total must match the
        entity-slice charges the ledgers booked (a scheduler that missed
        a charge enforces shares against wrong pass values even though
        the ledgers look right, and vice versa).
        """
        if self.finished:
            return list(self.violations)
        self.finished = True
        self.sweep()
        sched_total = getattr(self.kernel.scheduler, "charged_us_total", None)
        if sched_total is not None and self._base_sched_charged is not None:
            self._compare(
                "scheduler-reconcile",
                sched_total - self._base_sched_charged,
                self._charged_entity_us,
            )
        return list(self.violations)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> str:
        status = "OK" if not self.violations else (
            f"{len(self.violations)} violation(s)"
        )
        return (
            f"sanitizer[{self.kernel.config.mode.value}]: {status}; "
            f"{self.slices_checked} slices, {self.sweeps} sweeps, "
            f"{self._total_us:.1f}us busy "
            f"({self._charged_entity_us:.1f} entity-charged, "
            f"{self._charged_interrupt_us:.1f} interrupt-charged, "
            f"{self._unaccounted_us:.1f} unaccounted), "
            f"{self.disk_requests_checked} disk requests "
            f"({self._disk_service_us:.1f}us service), "
            f"{self._destroyed_count} containers destroyed"
        )
