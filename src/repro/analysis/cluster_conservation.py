"""Cross-host conservation checker for cluster global containers.

A :class:`~repro.cluster.principal.GlobalContainer` builds its cluster
ledger *incrementally*: at every window boundary it differences each
member container's cumulative counters against the previous window's
snapshot and folds the deltas in.  That incremental path is precisely
what can drift -- a missed member, a double-counted delta, a snapshot
taken before the kernel flushed its coalesced charges -- so this
checker re-derives the totals the slow way after every aggregation:

    sum over live members of their *current* cumulative counters
    + the final snapshots of members that have been destroyed
    == the incrementally-built cluster ledger

per cumulative ledger field (``CUMULATIVE_FIELDS``: CPU and its
subsets, disk service and bytes, packet, byte and connection counts),
per global container, per window.  It also re-checks monotonicity (a
cluster ledger can never shrink) and that the window CPU the throttle
decision used matches the delta the ledger actually absorbed.

Like the per-kernel :class:`~repro.analysis.sanitizer.ChargingSanitizer`
it is strictly observational (pure reads, no events), collects
violations instead of raising, and registers itself in the process-wide
installed list so ``python -m repro sanitize`` drains and reports it
alongside the kernel sanitizers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.sanitizer import Violation, _INSTALLED, _tol
from repro.kernel.accounting import CUMULATIVE_FIELDS, ResourceUsage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.principal import ClusterPrincipals


class ClusterConservationChecker:
    """Observational Σ-members == cluster-ledger checker.

    Duck-types the reporting surface of ``ChargingSanitizer``
    (``violations``, ``slices_checked``, ``finish()``, ``summary()``)
    so the sanitize CLI and the verify gates treat both uniformly.
    """

    def __init__(self, principals: "ClusterPrincipals") -> None:
        self.principals = principals
        self.violations: list[Violation] = []
        #: Windows x principals reconciled (the drained-report "work
        #: done" counter; named for CLI uniformity with the kernel
        #: sanitizer, whose unit of work is the slice).
        self.slices_checked = 0
        self.windows_checked = 0
        self.finished = False
        #: Previous window's ledger snapshot per principal id, for the
        #: monotonicity check.
        self._previous: dict[int, ResourceUsage] = {}

    def install(self) -> "ClusterConservationChecker":
        """Register with the process-wide sanitizer list."""
        _INSTALLED.append(self)
        return self

    # ------------------------------------------------------------------
    # Checks (called by ClusterPrincipals._tick after aggregation)
    # ------------------------------------------------------------------

    def on_window(self, principals: "ClusterPrincipals") -> None:
        """Reconcile every global container after one window roll."""
        kernels = principals._kernels()
        now = principals.cluster.sim.now
        for principal in principals.principals:
            self.slices_checked += 1
            self._check_principal(principal, kernels, now)
        self.windows_checked += 1

    def _check_principal(self, principal, kernels, now: float) -> None:
        # Independent recomputation: walk the members and read their
        # live cumulative ledgers directly (plus the carryover of
        # vanished members), never the principal's snapshots.
        expected = ResourceUsage()
        live_members = 0
        for host_name, container_name in principal.members:
            kernel = kernels.get(host_name)
            if kernel is None:
                self._violate(
                    now,
                    "cluster-member-host",
                    f"global container {principal.name!r} names unknown "
                    f"host {host_name!r}",
                    (("tenant", principal.name), ("host", host_name)),
                )
                continue
            member = kernel.containers.find_by_name(container_name)
            if member is None:
                continue
            live_members += 1
            expected = expected + member.usage
        expected = expected + principal.carryover
        ledger = principal.ledger
        for name in CUMULATIVE_FIELDS:
            total = getattr(expected, name)
            recorded = getattr(ledger, name)
            if abs(recorded - total) > _tol(total):
                self._violate(
                    now,
                    "cluster-ledger-conservation",
                    f"{name}: cluster ledger {recorded} != "
                    f"sum of member ledgers {total}",
                    (
                        ("tenant", principal.name),
                        ("counter", name),
                        ("members", live_members),
                    ),
                )
        previous = self._previous.get(id(principal))
        if previous is not None:
            for name in CUMULATIVE_FIELDS:
                before = getattr(previous, name)
                after = getattr(ledger, name)
                if after < before - _tol(before):
                    self._violate(
                        now,
                        "cluster-ledger-monotone",
                        f"{name}: cluster ledger shrank from "
                        f"{before} to {after}",
                        (("tenant", principal.name), ("counter", name)),
                    )
            # The throttle decision must be based on exactly the CPU the
            # ledger absorbed this window.
            delta_cpu_us = ledger.cpu_us - previous.cpu_us
            if abs(delta_cpu_us - principal.window_cpu_us) > _tol(
                delta_cpu_us
            ):
                self._violate(
                    now,
                    "cluster-window-delta",
                    f"window_cpu_us {principal.window_cpu_us} != ledger "
                    f"delta {delta_cpu_us}",
                    (("tenant", principal.name),),
                )
        self._previous[id(principal)] = ledger.snapshot()

    def _violate(
        self, now: float, check: str, message: str, context: tuple
    ) -> None:
        self.violations.append(
            Violation(
                time_us=now, check=check, message=message, context=context
            )
        )

    # ------------------------------------------------------------------
    # Reporting (ChargingSanitizer-compatible surface)
    # ------------------------------------------------------------------

    def finish(self) -> list[Violation]:
        """Final reconcile; returns all collected violations."""
        if not self.finished:
            self.finished = True
            # One last sweep so consumption after the final window
            # boundary cannot hide a drifted ledger: roll once more and
            # reconcile the result.
            principals = self.principals
            kernels = principals._kernels()
            for kernel in kernels.values():
                kernel.cpu.flush_charges()
            for principal in principals.principals:
                principal.roll(kernels)
            self.on_window(principals)
        return list(self.violations)

    def summary(self) -> str:
        status = (
            "OK"
            if not self.violations
            else f"{len(self.violations)} violation(s)"
        )
        return (
            f"cluster-sanitizer: {status}; "
            f"{len(self.principals.principals)} global container(s), "
            f"{self.windows_checked} windows reconciled, "
            f"{self.slices_checked} principal-window checks"
        )
