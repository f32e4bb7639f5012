"""Cross-host resource principals (``GlobalContainer``).

The paper's resource container binds a principal to an *activity* on
one host.  A datacenter activity -- one tenant's traffic through a
balancer and N backends -- spans hosts, so the cluster layer adds one
more level: a :class:`GlobalContainer` names one per-host *member*
container on each participating host (the tenant's class container,
e.g. ``httpd@be-03:class:gold``).  Members charge locally through the
unmodified kernel paths; nothing on the per-packet hot path knows the
global principal exists.

At every cluster window boundary (:class:`ClusterPrincipals`), each
global container walks its members in fixed host order, differences
their cumulative ledgers against the previous window's snapshots, and
folds the deltas into a *cluster ledger*.  The ledger is therefore an
incremental sum -- which is exactly what makes the cross-host
conservation check (:mod:`repro.analysis.cluster_conservation`)
non-tautological: the checker re-reads the members' live cumulative
counters and compares them against the incrementally-built total.

A ``global_cpu_limit`` is a fraction of whole-cluster CPU capacity per
window.  When a tenant's window consumption exceeds it, the global
container is marked *throttled*; the load balancer reads that flag at
admission and sheds the tenant's new requests until the next window.
Optionally (``push_member_caps``) the limit is also pushed down as a
per-member ``cpu_limit`` so each host's scheduler enforces the cap
between window boundaries.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.kernel.accounting import CUMULATIVE_FIELDS, ResourceUsage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.host import Cluster
    from repro.kernel.kernel import Kernel


#: The baseline of a member's first roll (never mutated).
_ZERO = ResourceUsage()


def _fold(into: ResourceUsage, current: ResourceUsage,
          base: ResourceUsage) -> None:
    """Add ``current - base`` to ``into``, cumulative fields only."""
    for name in CUMULATIVE_FIELDS:
        setattr(into, name,
                getattr(into, name) + (getattr(current, name)
                                       - getattr(base, name)))


class GlobalContainer:
    """One tenant's cluster-wide resource principal."""

    def __init__(
        self,
        name: str,
        global_cpu_limit: Optional[float] = None,
    ) -> None:
        if global_cpu_limit is not None and not 0.0 < global_cpu_limit <= 1.0:
            raise ValueError(
                f"global_cpu_limit must be in (0, 1], got {global_cpu_limit}"
            )
        self.name = name
        #: Fraction of whole-cluster CPU capacity allowed per window.
        self.global_cpu_limit = global_cpu_limit
        #: (host name, container name) members, in registration order.
        self.members: list[tuple] = []
        #: Incrementally aggregated cluster ledger (cumulative fields
        #: only: a member's levels, such as memory, are not summed).
        self.ledger = ResourceUsage()
        #: Totals of members that vanished (their final snapshots),
        #: kept so conservation still balances after destruction.
        self.carryover = ResourceUsage()
        #: Per-member ledger snapshot at the last roll.
        self._last: dict[tuple, ResourceUsage] = {}
        #: CPU the members consumed during the last window.
        self.window_cpu_us = 0.0
        #: Admission gate the balancer consults; set at window rolls.
        self.throttled = False
        self.windows_throttled = 0

    def add_member(self, host_name: str, container_name: str) -> None:
        """Declare the member container looked up on ``host_name``.

        Resolution is lazy and per-window: the container need not exist
        yet (servers create class containers at startup), and a member
        that dies simply stops contributing.
        """
        self.members.append((host_name, container_name))

    # ------------------------------------------------------------------
    # Window aggregation
    # ------------------------------------------------------------------

    def roll(self, kernels: "dict[str, Kernel]") -> None:
        """Fold one window's member deltas into the cluster ledger."""
        window_cpu_us = 0.0
        for key in self.members:
            host_name, container_name = key
            kernel = kernels[host_name]
            member = kernel.containers.find_by_name(container_name)
            if member is None:
                last = self._last.pop(key, None)
                if last is not None:
                    _fold(self.carryover, last, _ZERO)
                continue
            current = member.usage.snapshot()
            last = self._last.get(key, _ZERO)
            _fold(self.ledger, current, last)
            window_cpu_us += current.cpu_us - last.cpu_us
            self._last[key] = current
        self.window_cpu_us = window_cpu_us

    def push_caps(self, kernels: "dict[str, Kernel]") -> None:
        """Mirror the global limit onto every member's ``cpu_limit``.

        Each member gets the full global fraction as its local per-host
        cap: the global principal bounds the *sum*, the pushed cap only
        keeps one host from burning the whole allowance between window
        boundaries.  Clearing happens when the limit is removed.
        """
        for host_name, container_name in self.members:
            member = kernels[host_name].containers.find_by_name(
                container_name
            )
            if member is None:
                continue
            if member.attrs.cpu_limit != self.global_cpu_limit:
                member.attrs = dataclasses.replace(
                    member.attrs, cpu_limit=self.global_cpu_limit
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "throttled" if self.throttled else "open"
        return (
            f"GlobalContainer({self.name!r}, {len(self.members)} members, "
            f"{state})"
        )


class ClusterPrincipals:
    """The cluster-wide window driver for every global container.

    One timer (not one per principal) walks the principals in
    registration order each window: deterministic aggregation order,
    and one flush of each kernel's coalesced CPU charges per window
    instead of one per principal.
    """

    def __init__(
        self,
        cluster: "Cluster",
        window_us: float = 10_000.0,
        push_member_caps: bool = False,
    ) -> None:
        if window_us <= 0:
            raise ValueError(f"window_us must be positive, got {window_us}")
        self.cluster = cluster
        self.window_us = window_us
        self.push_member_caps = push_member_caps
        self.principals: list[GlobalContainer] = []
        self.windows_rolled = 0
        # Opt-in cross-host conservation checking, same switch as the
        # per-kernel ChargingSanitizer (Simulation.sanitize, resolved
        # from the argument or REPRO_SANITIZE).  Local import: analysis
        # is optional instrumentation, not a cluster dependency.
        self.checker = None
        if cluster.sim.sanitize:
            from repro.analysis.cluster_conservation import (
                ClusterConservationChecker,
            )

            self.checker = ClusterConservationChecker(self).install()
        cluster.sim.after(self.window_us, self._tick)

    def create(
        self,
        name: str,
        global_cpu_limit: Optional[float] = None,
    ) -> GlobalContainer:
        """Create and register one global container."""
        principal = GlobalContainer(name, global_cpu_limit=global_cpu_limit)
        self.principals.append(principal)
        return principal

    def _kernels(self) -> "dict[str, Kernel]":
        return self.cluster.fabric.kernels

    def total_cores(self) -> int:
        """CPU capacity of the whole cluster, in cores."""
        total = 0
        for kernel in self._kernels().values():
            total += kernel.cpu.n_cpus
        return total

    def _tick(self) -> None:
        kernels = self._kernels()
        # Coalesced charges must land in the window that is closing.
        for kernel in kernels.values():
            kernel.cpu.flush_charges()
        capacity_us = self.window_us * self.total_cores()
        sim = self.cluster.sim
        trace = sim.trace
        for principal in self.principals:
            principal.roll(kernels)
            if principal.global_cpu_limit is not None:
                limit_us = principal.global_cpu_limit * capacity_us
                principal.throttled = principal.window_cpu_us > limit_us
                if principal.throttled:
                    principal.windows_throttled += 1
                if self.push_member_caps:
                    principal.push_caps(kernels)
            if trace.active:
                trace.publish(
                    sim.now,
                    "cluster.window",
                    tenant=principal.name,
                    cpu_us=principal.window_cpu_us,
                    share=(
                        principal.window_cpu_us / capacity_us
                        if capacity_us > 0
                        else 0.0
                    ),
                    throttled=principal.throttled,
                )
        if self.checker is not None:
            self.checker.on_window(self)
        self.windows_rolled += 1
        sim.after(self.window_us, self._tick)
