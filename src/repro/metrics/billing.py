"""Per-activity billing and capacity planning (paper section 4.8).

"Because resource containers enable precise accounting for the costs of
an activity, they may be useful to administrators simply for sending
accurate bills to customers, and for use in capacity planning."

:class:`BillingReport` turns container ledgers into exactly that: an
invoice per (matching) container subtree, plus a capacity-planning
summary of where the machine's CPU actually went.  Disk consumption
(the ``disk_us`` / ``disk_bytes`` ledger dimensions maintained by
:mod:`repro.io`) is metered on the same invoices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.container import ResourceContainer
from repro.core.hierarchy import subtree_usage
from repro.core.operations import ContainerManager
from repro.kernel.accounting import ResourceUsage


@dataclass(frozen=True)
class Tariff:
    """Prices for metered resources (arbitrary currency units)."""

    per_cpu_second: float = 0.04
    per_million_packets: float = 0.50
    per_connection: float = 0.0001
    #: Price per second of disk service time consumed.
    per_disk_second: float = 0.02
    #: Price per gigabyte read off the disk.
    per_disk_gb: float = 0.01

    def charge(self, usage: ResourceUsage) -> float:
        """Total price for the consumption in one ledger."""
        return (
            self.per_cpu_second * (usage.cpu_us / 1e6)
            + self.per_million_packets * (usage.packets_received / 1e6)
            + self.per_connection * usage.connections_accepted
            + self.per_disk_second * (usage.disk_us / 1e6)
            + self.per_disk_gb * (usage.disk_bytes / 2**30)
        )


@dataclass
class InvoiceLine:
    """One customer's (container subtree's) metered consumption."""

    name: str
    usage: ResourceUsage
    amount: float


@dataclass
class BillingReport:
    """Invoices for every top-level customer container."""

    lines: list = field(default_factory=list)
    unaccounted_cpu_us: float = 0.0
    elapsed_us: float = 0.0

    @classmethod
    def generate(
        cls,
        manager: ContainerManager,
        elapsed_us: float,
        tariff: Optional[Tariff] = None,
        customer_filter: Optional[Callable[[ResourceContainer], bool]] = None,
        unaccounted_cpu_us: float = 0.0,
    ) -> "BillingReport":
        """Bill every top-level container (child of the root).

        ``customer_filter`` restricts which top-level containers count
        as billable customers (e.g. only guest-server roots).
        """
        tariff = tariff if tariff is not None else Tariff()
        report = cls(elapsed_us=elapsed_us, unaccounted_cpu_us=unaccounted_cpu_us)
        for container in manager.root.children:
            if customer_filter is not None and not customer_filter(container):
                continue
            usage = subtree_usage(container)
            report.lines.append(
                InvoiceLine(container.name, usage, tariff.charge(usage))
            )
        report.lines.sort(key=lambda line: -line.amount)
        return report

    def total_billed_cpu_us(self) -> float:
        """CPU covered by some invoice."""
        return sum(line.usage.cpu_us for line in self.lines)

    def total_billed_disk_us(self) -> float:
        """Disk service time covered by some invoice."""
        return sum(line.usage.disk_us for line in self.lines)

    def render(self) -> str:
        """Invoice table plus the capacity-planning footer."""
        lines = [
            "Billing report (per top-level resource container)",
            f"{'customer':30s}{'CPU s':>9s}{'net CPU s':>11s}"
            f"{'packets':>10s}{'conns':>8s}{'disk s':>9s}{'disk MB':>9s}"
            f"{'amount':>10s}",
        ]
        for line in self.lines:
            usage = line.usage
            lines.append(
                f"{line.name:30s}{usage.cpu_us / 1e6:>9.3f}"
                f"{usage.cpu_network_us / 1e6:>11.3f}"
                f"{usage.packets_received:>10d}"
                f"{usage.connections_accepted:>8d}"
                f"{usage.disk_us / 1e6:>9.3f}"
                f"{usage.disk_bytes / 2**20:>9.2f}"
                f"{line.amount:>10.4f}"
            )
        if self.elapsed_us > 0:
            billed = self.total_billed_cpu_us()
            lines.append(
                f"capacity: {billed / self.elapsed_us:.1%} of machine CPU "
                f"billed, {self.unaccounted_cpu_us / self.elapsed_us:.1%} "
                "unaccounted (interrupts/system)"
            )
        return "\n".join(lines)
