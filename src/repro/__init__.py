"""repro: a reproduction of "Resource Containers: A New Facility for
Resource Management in Server Systems" (Banga, Druschel, Mogul; OSDI 1999).

The package simulates the paper's whole system -- a monolithic kernel
with an explicit resource-principal abstraction, three network
processing models (unmodified softirq, LRP, resource containers), and
the server applications and workloads of the evaluation section -- as a
deterministic discrete-event simulation.

Quick start::

    from repro import Host, SystemMode

    host = Host(mode=SystemMode.RC, seed=1)
    ...

See ``examples/quickstart.py`` and DESIGN.md for the full tour.
"""

from repro.core.attributes import (
    ContainerAttributes,
    SchedClass,
    fixed_share_attrs,
    timeshare_attrs,
)
from repro.core.container import ResourceContainer
from repro.core.operations import ContainerManager
from repro.kernel.costs import CostModel, DEFAULT_COSTS
from repro.kernel.kernel import Kernel, KernelConfig, SystemMode
from repro.net.filters import AddrFilter
from repro.net.packet import format_ip, ip_addr
from repro.sim.engine import Simulation

__version__ = "1.0.0"

__all__ = [
    "AddrFilter",
    "ContainerAttributes",
    "ContainerManager",
    "CostModel",
    "DEFAULT_COSTS",
    "Host",
    "Kernel",
    "KernelConfig",
    "ResourceContainer",
    "SchedClass",
    "Simulation",
    "SystemMode",
    "fixed_share_attrs",
    "format_ip",
    "ip_addr",
    "timeshare_attrs",
]


class Host:
    """Convenience bundle: a Simulation plus a Kernel, ready to run.

    Most experiments and examples start here::

        host = Host(mode=SystemMode.RC, seed=42)
        host.kernel.fs.add_file("/docs/index.html", 1024)
        ...
        host.run(seconds=10)
    """

    def __init__(
        self,
        mode: SystemMode = SystemMode.RC,
        seed: int = 0,
        costs: CostModel = DEFAULT_COSTS,
        config: "KernelConfig | None" = None,
        sanitize: bool = False,
        observe: bool = False,
    ) -> None:
        if config is None:
            config = KernelConfig(mode=mode)
        elif config.mode is not mode:
            config.mode = mode
        self.sim = Simulation(seed=seed, sanitize=sanitize, observe=observe)
        self.kernel = Kernel(self.sim, costs=costs, config=config)

    @property
    def observability(self):
        """The attached :class:`repro.obs.Observability` (None unless
        constructed with ``observe=True`` or ``REPRO_TRACE``)."""
        return self.sim.observability

    @property
    def now(self) -> float:
        """Current simulated time, microseconds."""
        return self.sim.now

    def run(
        self,
        seconds: "float | None" = None,
        until_us: "float | None" = None,
    ) -> float:
        """Advance the simulation.

        ``seconds`` runs for that much *additional* simulated time from
        now (so sequential calls compose); ``until_us`` runs to an
        absolute microsecond deadline.  Pass exactly one.
        """
        if (seconds is None) == (until_us is None):
            raise ValueError("pass exactly one of seconds / until_us")
        if until_us is not None:
            horizon = until_us
        else:
            horizon = self.sim.now + seconds * 1_000_000.0
        return self.sim.run(until=horizon)
