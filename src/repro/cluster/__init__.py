"""Multi-host simulation: fabric, cluster hosts, balancer, principals.

One :class:`~repro.sim.engine.Simulation` drives N kernels connected by
a :class:`~repro.cluster.fabric.Fabric`; a front-end
:class:`~repro.cluster.balancer.LoadBalancer` routes per-tenant traffic
to backends, and :class:`~repro.cluster.principal.GlobalContainer`
principals meter (and cap) each tenant's cluster-wide consumption.
"""

from repro.cluster.balancer import (
    BackendChannel,
    LeastLoadedPolicy,
    LoadBalancer,
    RoundRobinPolicy,
    RoutingPolicy,
    UsageWeightedPolicy,
    backend_specs,
    tenant_specs,
)
from repro.cluster.fabric import Fabric, FabricLink
from repro.cluster.host import Cluster, ClusterHost
from repro.cluster.principal import ClusterPrincipals, GlobalContainer

__all__ = [
    "BackendChannel",
    "Cluster",
    "ClusterHost",
    "ClusterPrincipals",
    "Fabric",
    "FabricLink",
    "GlobalContainer",
    "LeastLoadedPolicy",
    "LoadBalancer",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "UsageWeightedPolicy",
    "backend_specs",
    "tenant_specs",
]
