"""Resource usage accounting records.

A :class:`ResourceUsage` is the ledger attached to every resource
principal (in this system: every resource container).  The kernel charges
CPU time (with its network- and syscall-context subsets), memory, disk
service, and packet, byte and connection counts here; the paper's
section 4.1 requires that an application be able to read this information
back (the ``obtain container resource usage`` primitive in Table 1).

Each ledger field declares its resource dimension and its kind once, in
the field's metadata.  A *cumulative* field never decreases, so it can
be differenced across windows and summed across hosts; a *level* field
(memory residency) moves both ways.  Everything that iterates the
ledger -- the arithmetic below, cluster ledgers, their conservation
check, the sanitizer's per-dimension checks and the CHG2xx primitive
registry -- derives from :data:`DIMENSIONS`, :data:`FIELDS` and
:data:`CUMULATIVE_FIELDS` rather than naming fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

#: Every resource dimension, in report order.  ``fd`` (descriptor slots)
#: is consumed but has no ledger field yet.
DIMENSION_NAMES = ("cpu", "memory", "disk", "net", "fd")

CUMULATIVE = "cumulative"
LEVEL = "level"


def _ledger(dimension: str, default, kind: str = CUMULATIVE):
    """A ledger field tagged with its dimension and kind."""
    if dimension not in DIMENSION_NAMES:
        raise ValueError(f"ledger field of unknown dimension {dimension!r}")
    return field(default=default,
                 metadata={"dimension": dimension, "kind": kind})


@dataclass
class ResourceUsage:
    """Resource consumption charged to one principal.

    Cumulative values count since creation; callers that need rates
    snapshot the record and difference it.
    """

    cpu_us: float = _ledger("cpu", 0.0)
    #: CPU consumed in kernel network-processing context (a subset of
    #: ``cpu_us``).  Separated so experiments can show where time went.
    cpu_network_us: float = _ledger("cpu", 0.0)
    #: CPU consumed executing syscall-context kernel work (subset).
    cpu_syscall_us: float = _ledger("cpu", 0.0)
    memory_bytes: int = _ledger("memory", 0, LEVEL)
    memory_peak_bytes: int = _ledger("memory", 0, LEVEL)
    #: Disk service time consumed by this principal's read requests
    #: (seek + transfer on the simulated device, charged at completion).
    disk_us: float = _ledger("disk", 0.0)
    #: Bytes read from the simulated disk (cache misses only).
    disk_bytes: int = _ledger("disk", 0)
    packets_received: int = _ledger("net", 0)
    packets_dropped: int = _ledger("net", 0)
    #: Response bytes transmitted on this principal's connections
    #: (charged at segment handoff to the wire, before QoS shaping
    #: delays -- the consumption happens when the kernel commits the
    #: buffer, not when the client hears about it).
    net_tx_bytes: int = _ledger("net", 0)
    connections_accepted: int = _ledger("net", 0)

    def charge_cpu(self, amount_us: float, *, network: bool = False,
                   syscall: bool = False) -> None:
        """Add CPU time; negative charges indicate a simulator bug."""
        if amount_us < 0:
            raise ValueError(f"negative CPU charge: {amount_us}")
        self.cpu_us += amount_us
        if network:
            self.cpu_network_us += amount_us
        if syscall:
            self.cpu_syscall_us += amount_us

    def charge_disk(self, service_us: float, size_bytes: int) -> None:
        """Add disk service time and bytes; charged at request completion."""
        if service_us < 0:
            raise ValueError(f"negative disk charge: {service_us}")
        if size_bytes < 0:
            raise ValueError(f"negative disk byte charge: {size_bytes}")
        self.disk_us += service_us
        self.disk_bytes += size_bytes

    def charge_net_tx(self, size_bytes: int) -> None:
        """Add transmitted response bytes (charged at segment handoff)."""
        if size_bytes < 0:
            raise ValueError(f"negative transmit charge: {size_bytes}")
        self.net_tx_bytes += size_bytes

    def charge_memory(self, delta_bytes: int) -> None:
        """Adjust memory consumption (may be negative on free)."""
        self.memory_bytes += delta_bytes
        if self.memory_bytes < 0:
            raise ValueError(
                f"memory accounting went negative: {self.memory_bytes}"
            )
        if self.memory_bytes > self.memory_peak_bytes:
            self.memory_peak_bytes = self.memory_bytes

    def validate(self) -> list[str]:
        """Integrity problems in this ledger (empty when consistent).

        Used by the charging-conservation sanitizer
        (:mod:`repro.analysis.sanitizer`): the charge methods above
        reject bad deltas at the door, but a ledger can still be
        corrupted by direct field writes, so the sanitizer re-checks the
        stock as well as the flow.
        """
        problems = []
        for name in FIELDS:
            value = getattr(self, name)
            if value < 0:
                problems.append(f"{name} is negative ({value})")
        if self.memory_peak_bytes < self.memory_bytes:
            problems.append(
                f"memory_peak_bytes ({self.memory_peak_bytes}) below "
                f"current memory_bytes ({self.memory_bytes})"
            )
        # network/syscall contexts are disjoint subsets of cpu_us.
        subset = self.cpu_network_us + self.cpu_syscall_us
        if subset > self.cpu_us + 1e-6 * max(1.0, self.cpu_us):
            problems.append(
                f"sub-ledgers exceed total: network+syscall={subset} "
                f"> cpu_us={self.cpu_us}"
            )
        return problems

    def snapshot(self) -> "ResourceUsage":
        """An independent copy of the current ledger."""
        return replace(self)

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        """Field-wise sum (used to aggregate container subtrees)."""
        return ResourceUsage(**{
            name: getattr(self, name) + getattr(other, name)
            for name in FIELDS
        })


#: Every ledger field, in declaration order.
FIELDS: tuple = tuple(f.name for f in fields(ResourceUsage))

#: The fields that never decrease: what windows difference and cluster
#: ledgers sum (a freed page would make a level look like lost usage).
CUMULATIVE_FIELDS: tuple = tuple(
    f.name for f in fields(ResourceUsage) if f.metadata["kind"] == CUMULATIVE
)

#: Resource dimension -> its ledger fields (empty for ``fd``).
DIMENSIONS: dict = {
    dimension: tuple(
        f.name for f in fields(ResourceUsage)
        if f.metadata["dimension"] == dimension
    )
    for dimension in DIMENSION_NAMES
}


def check_dimension(dimension: str) -> None:
    """Raise ``ValueError`` unless ``dimension`` is declared."""
    if dimension not in DIMENSIONS:
        raise ValueError(
            f"unknown resource dimension {dimension!r}; "
            f"declared: {', '.join(DIMENSION_NAMES)}"
        )


@dataclass
class SystemAccounting:
    """Whole-host ledger kept by the kernel.

    ``unaccounted_cpu_us`` is the heart of the paper's critique: CPU burnt
    in software-interrupt context that an unmodified kernel charges to no
    resource principal at all.  The LRP and resource-container modes drive
    this to (nearly) zero, leaving only raw hardware-interrupt overhead.
    """

    total_cpu_us: float = 0.0
    idle_cpu_us: float = 0.0
    unaccounted_cpu_us: float = 0.0
    interrupt_cpu_us: float = 0.0
    context_switches: int = 0
    softirq_packets: int = 0

    def utilization(self, elapsed_us: float) -> float:
        """Fraction of elapsed time the CPU was busy."""
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, self.total_cpu_us / elapsed_us)
