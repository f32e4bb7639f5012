"""Multi-kernel hosting: one event engine, N kernels, one fabric.

A :class:`Cluster` owns a single :class:`~repro.sim.engine.Simulation`
and a :class:`~repro.cluster.fabric.Fabric`; every
:class:`ClusterHost` adds one more :class:`~repro.kernel.kernel.Kernel`
to the shared engine.  Kernels already tolerate sharing a simulation
(each registers its own window/prune timers and the observability is
shared per-sim), so the cluster layer only has to wire the edges:

* tag each kernel with its fabric host name (trace records and
  observability lanes become host-qualified);
* point the kernel's TCP egress at the fabric, so segments sent to an
  endpoint on another host pay per-link latency + serialization instead
  of the flat client wire delay;
* pin interrupt delivery per host (``KernelConfig.irq_core``) -- the
  balancer host keeps its accept path off the cores its forwarding
  threads run on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cluster.fabric import (
    DEFAULT_BYTES_PER_US,
    DEFAULT_LATENCY_US,
    Fabric,
)
from repro.kernel.costs import CostModel, DEFAULT_COSTS
from repro.kernel.kernel import Kernel, KernelConfig, SystemMode
from repro.sim.engine import Simulation

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


class ClusterHost:
    """One named kernel inside a cluster."""

    def __init__(
        self,
        cluster: "Cluster",
        name: str,
        config: Optional[KernelConfig] = None,
        costs: Optional[CostModel] = None,
        irq_core: Optional[int] = None,
    ) -> None:
        if config is None:
            config = KernelConfig(mode=cluster.mode)
        if irq_core is not None:
            config.irq_core = irq_core
        self.cluster = cluster
        self.name = name
        self.kernel = Kernel(
            cluster.sim,
            costs=costs if costs is not None else cluster.costs,
            config=config,
        )
        self.kernel.host_name = name
        cluster.fabric.attach(name, self.kernel)
        # Egress hook: segments to endpoints on other fabric hosts pay
        # link delay; plain external clients keep the flat wire delay.
        fabric = cluster.fabric
        self.kernel.stack.egress_delay = (
            lambda client, size_bytes: fabric.egress_delay(
                name, client, size_bytes
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterHost({self.name!r}, {self.kernel.config.mode.value})"


class Cluster:
    """A Simulation plus a fabric plus any number of kernels.

    The front-end/back-end topology the experiments use::

        cluster = Cluster(seed=1, mode=SystemMode.RC)
        lb = cluster.add_host("lb", n_cpus=2, irq_core=1)
        backends = [cluster.add_host(f"be-{i:02d}") for i in range(8)]
        ...
        cluster.run(seconds=2)
    """

    def __init__(
        self,
        mode: SystemMode = SystemMode.RC,
        seed: int = 0,
        costs: CostModel = DEFAULT_COSTS,
        latency_us: float = DEFAULT_LATENCY_US,
        bytes_per_us: float = DEFAULT_BYTES_PER_US,
        sanitize: bool = False,
        observe: bool = False,
    ) -> None:
        self.mode = mode
        self.costs = costs
        self.sim = Simulation(seed=seed, sanitize=sanitize, observe=observe)
        self.fabric = Fabric(
            self.sim, latency_us=latency_us, bytes_per_us=bytes_per_us
        )
        #: Name -> host, in creation order (the deterministic host order
        #: every cluster-wide sweep uses).
        self.hosts: dict[str, ClusterHost] = {}

    def add_host(
        self,
        name: str,
        config: Optional[KernelConfig] = None,
        costs: Optional[CostModel] = None,
        n_cpus: Optional[int] = None,
        irq_core: Optional[int] = None,
    ) -> ClusterHost:
        """Create and register one more kernel on the shared engine."""
        if config is None:
            config = KernelConfig(mode=self.mode)
        if n_cpus is not None:
            config.n_cpus = n_cpus
        host = ClusterHost(
            self, name, config=config, costs=costs, irq_core=irq_core
        )
        self.hosts[name] = host
        return host

    def kernel(self, name: str) -> Kernel:
        """The kernel of the host registered as ``name``."""
        return self.hosts[name].kernel

    @property
    def now(self) -> float:
        """Current simulated time, microseconds."""
        return self.sim.now

    def run(
        self,
        seconds: Optional[float] = None,
        until_us: Optional[float] = None,
    ) -> float:
        """Advance the shared engine (same contract as ``Host.run``)."""
        if (seconds is None) == (until_us is None):
            raise ValueError("pass exactly one of seconds / until_us")
        if until_us is not None:
            horizon = until_us
        else:
            horizon = self.sim.now + seconds * 1_000_000.0
        return self.sim.run(until=horizon)
