"""Cluster tenant isolation: global principals vs. an unbound cluster.

Two tenants share a cluster: a front-end load balancer and ``n``
backend hosts.  The *victim* runs a modest closed loop of cached static
requests; the *aggressor* hammers a CPU-expensive dynamic endpoint
(``/heavy``) with zero think time.  The figure reports the victim's
mean response time, normalised to the same configuration with the
aggressor absent, as a function of cluster size:

* **unbound** -- unmodified kernels, no containers, round-robin
  routing, no global principal.  The aggressor's heavy requests land on
  every backend and the victim's requests queue behind them in the
  priority-blind thread pools; degradation grows with the aggressor's
  offered load and does not improve with cluster size (the round-robin
  balancer dutifully spreads the attack everywhere).
* **bound** -- RC kernels, each tenant classified onto its own class
  containers (balancer and backends) with the victim carrying higher
  scheduling priority; usage-weighted routing; and the aggressor under
  a cluster-wide :class:`~repro.cluster.principal.GlobalContainer` CPU
  cap enforced at the balancer's admission gate.  Each backend's
  scheduler isolates the victim locally, and the global cap bounds the
  aggressor's *total* consumption no matter how many hosts it touches.

The SYN-flood variant (:func:`run_synflood`) points an open-loop
flooder at the balancer itself: with filtered listen specs the flood
matches no listener and is absorbed at early-demux cost on the
balancer's interrupt core -- the backends never see a single flood
packet, and the victim's latency barely moves.

This is the paper's isolation story lifted one level: resource
containers meter and bound an activity on one host; a global container
does the same for an activity that spans a cluster (section 7's
"binding resource principals to activities" at datacenter scale).
"""

from __future__ import annotations

from repro.apps.httpserver import MultiThreadedServer
from repro.apps.synflood import SynFlooder
from repro.apps.webclient import HttpClient
from repro.cluster import (
    Cluster,
    ClusterPrincipals,
    LoadBalancer,
    RoundRobinPolicy,
    UsageWeightedPolicy,
    backend_specs,
    tenant_specs,
)
from repro.experiments import sweep
from repro.experiments.common import (
    FigureResult,
    STATIC_PATH,
    STATIC_SIZE,
    new_series,
)
from repro.kernel.kernel import SystemMode
from repro.net.packet import ip_addr

TENANTS = ["victim", "aggressor"]

#: The aggressor's dynamic endpoint: parse cost plus this much extra
#: application CPU per request (a "search" handler, no CGI fork).
HEAVY_PATH = "/heavy"
HEAVY_COMPUTE_US = 4_000.0

#: Victim closed-loop pacing: a modest request rate per client.
VICTIM_THINK_US = 2_000.0

#: Scheduling attributes per tenant class (bound config only).
PRIORITIES = {"victim": 6, "aggressor": 2}
WEIGHTS = {"victim": 4.0, "aggressor": 1.0}

#: Cluster-wide CPU fraction the aggressor may consume per window
#: before the balancer sheds its new requests (bound config only).
AGGRESSOR_GLOBAL_CAP = 0.25

#: Client populations scale with the cluster so per-backend load is
#: constant: the aggressor offers enough closed-loop heavy requests to
#: saturate every backend core it can reach.
VICTIMS_PER_BACKEND = 2
AGGRESSORS_PER_BACKEND = 8

#: Worker threads per tenant class per backend.  The aggressor fleet is
#: sized to keep a whole pool busy on every backend, so the unbound
#: configuration's victims queue behind a full pool of heavy requests.
BACKEND_THREADS = 8


def build_cluster(
    config: str,
    n_backends: int,
    seed: int,
    sanitize: bool = False,
    observe: bool = False,
):
    """One front-end + ``n_backends`` cluster in the named config.

    Returns ``(cluster, balancer, principals)``; ``principals`` is None
    in the unbound config.  Shared by the figure, the cluster bench,
    the determinism tests, and the verify gate.
    """
    if config not in ("bound", "unbound"):
        raise ValueError(f"unknown cluster config: {config!r}")
    bound = config == "bound"
    mode = SystemMode.RC if bound else SystemMode.UNMODIFIED
    cluster = Cluster(mode=mode, seed=seed, sanitize=sanitize, observe=observe)
    cluster.add_host("lb", n_cpus=2, irq_core=1)
    names = [f"be-{index:02d}" for index in range(n_backends)]
    for name in names:
        cluster.add_host(name)
        kernel = cluster.kernel(name)
        kernel.fs.add_file(STATIC_PATH, STATIC_SIZE)
        kernel.fs.warm(STATIC_PATH)
        kernel.fs.add_file(HEAVY_PATH, 512)
        kernel.fs.warm(HEAVY_PATH)
        MultiThreadedServer(
            kernel,
            specs=backend_specs(
                TENANTS,
                priorities=PRIORITIES if bound else None,
                weights=WEIGHTS if bound else None,
            ),
            n_threads=BACKEND_THREADS,
            use_containers=bound,
            compute_overrides={HEAVY_PATH: HEAVY_COMPUTE_US},
        ).install()

    principals = None
    tenant_principals: dict = {}
    if bound:
        principals = ClusterPrincipals(cluster, window_us=10_000.0)
        for tenant in TENANTS:
            cap = AGGRESSOR_GLOBAL_CAP if tenant == "aggressor" else None
            principal = principals.create(tenant, global_cpu_limit=cap)
            principal.add_member("lb", f"lb:class:{tenant}")
            for name in names:
                principal.add_member(name, f"mt-httpd:class:{tenant}")
            tenant_principals[tenant] = principal

    balancer = LoadBalancer(
        cluster,
        "lb",
        names,
        specs=tenant_specs(
            TENANTS,
            priorities=PRIORITIES if bound else None,
            weights=WEIGHTS if bound else None,
        ),
        policy=(
            UsageWeightedPolicy(backend_server_name="mt-httpd")
            if bound
            else RoundRobinPolicy()
        ),
        principals=tenant_principals,
        use_containers=bound,
    )
    balancer.install()
    return cluster, balancer, principals


def _start_clients(
    cluster: Cluster,
    n_backends: int,
    aggressors: bool,
    latencies_us: list,
) -> list:
    """Victim fleet (recording latencies) plus the optional aggressors.

    Victims arrive from 10.1.0.0/16, aggressors from 10.2.0.0/16 --
    the subnets the balancer's tenant listen specs classify on.
    """
    lb_kernel = cluster.kernel("lb")

    def record(_client, _request, latency_us: float) -> None:
        latencies_us.append(latency_us)

    clients = []
    for index in range(VICTIMS_PER_BACKEND * n_backends):
        client = HttpClient(
            lb_kernel,
            src_addr=ip_addr(10, 1, 0, 1) + index,
            name=f"victim-{index}",
            path=STATIC_PATH,
            think_time_us=VICTIM_THINK_US,
            rng=cluster.sim.rng.fork(f"victim-{index}"),
            on_complete=record,
        )
        client.start(at_us=2_000.0 + index * 97.0)
        clients.append(client)
    if aggressors:
        for index in range(AGGRESSORS_PER_BACKEND * n_backends):
            client = HttpClient(
                lb_kernel,
                src_addr=ip_addr(10, 2, 0, 1) + index,
                name=f"aggressor-{index}",
                path=HEAVY_PATH,
                think_time_us=0.0,
                timeout_us=400_000.0,
                rng=cluster.sim.rng.fork(f"aggressor-{index}"),
            )
            client.start(at_us=5_000.0 + index * 53.0)
            clients.append(client)
    return clients


@sweep.point_runner("fig_cluster_isolation")
def _run_point(
    config: str,
    n_backends: int,
    aggressors: bool,
    flood_rate: float,
    warmup_s: float,
    measure_s: float,
    seed: int = 77,
) -> float:
    """Mean victim response time (ms) for one cluster configuration."""
    cluster, _balancer, _principals = build_cluster(
        config, n_backends, seed=seed
    )
    latencies_us: list = []
    _start_clients(cluster, n_backends, aggressors, latencies_us)
    if flood_rate > 0:
        SynFlooder(
            cluster.kernel("lb"),
            rate_per_sec=flood_rate,
            batch=10 if flood_rate >= 10_000 else 1,
            rng=cluster.sim.rng.fork("flood"),
        ).start(at_us=20_000.0)
    cluster.run(seconds=warmup_s)
    del latencies_us[:]
    cluster.run(seconds=measure_s)
    if not latencies_us:
        return 0.0
    return sum(latencies_us) / len(latencies_us) / 1_000.0


CONFIGS = [
    ("bound", "With global containers"),
    ("unbound", "Unbound cluster"),
]


def grid(fast: bool = True, points=None) -> list:
    """The figure's grid: per config and size, loaded + quiet baseline."""
    if points is None:
        points = [2, 8] if fast else [8, 16, 32, 64]
    warmup_s = 0.2 if fast else 0.5
    measure_s = 0.5 if fast else 1.5
    return [
        sweep.point(
            "fig_cluster_isolation",
            seed=77,
            config=config,
            n_backends=n_backends,
            aggressors=aggressors,
            flood_rate=0.0,
            warmup_s=warmup_s,
            measure_s=measure_s,
        )
        for config, _label in CONFIGS
        for n_backends in points
        for aggressors in (False, True)
    ]


def run(fast: bool = True, points=None, jobs: int = 1,
        cache: bool = True) -> FigureResult:
    """Regenerate the cluster-isolation figure.

    Each curve point is the victim's degradation factor: mean response
    time with the aggressor active divided by the same configuration's
    aggressor-free baseline.
    """
    grid_points = grid(fast=fast, points=points)
    values = sweep.run_points(grid_points, jobs=jobs, cache=cache)
    baselines: dict = {}
    loaded: dict = {}
    for pt, value in zip(grid_points, values):
        params = dict(pt.params)
        key = (params["config"], params["n_backends"])
        if params["aggressors"]:
            loaded[key] = value
        else:
            baselines[key] = value
    series = []
    for config, label in CONFIGS:
        curve = new_series(label)
        for key in sorted(loaded):
            if key[0] != config:
                continue
            baseline_ms = baselines.get(key, 0.0)
            if baseline_ms > 0:
                curve.add(key[1], loaded[key] / baseline_ms)
        series.append(curve)
    return FigureResult(
        title="Cluster isolation: victim latency degradation (x baseline)",
        x_label="backends",
        series=series,
    )


def run_synflood(fast: bool = True, rates=None, jobs: int = 1,
                 cache: bool = True) -> FigureResult:
    """SYN-flood-at-the-balancer variant (bound config, 8 backends).

    The flood targets the balancer's HTTP port from an unclassified
    subnet; with the tenant listen specs installed it is absorbed at
    early-demux cost on the balancer's interrupt core.  The curve is
    the victim's mean response time versus flood rate -- flat, because
    not one flood packet reaches a backend or a worker thread.
    """
    if rates is None:
        rates = [0, 20_000, 50_000] if fast else [0, 10_000, 30_000, 70_000]
    n_backends = 4 if fast else 8
    warmup_s = 0.2 if fast else 0.5
    measure_s = 0.5 if fast else 1.5
    grid_points = [
        sweep.point(
            "fig_cluster_isolation",
            seed=78,
            config="bound",
            n_backends=n_backends,
            aggressors=False,
            flood_rate=float(rate),
            warmup_s=warmup_s,
            measure_s=measure_s,
        )
        for rate in rates
    ]
    values = sweep.run_points(grid_points, jobs=jobs, cache=cache)
    curve = new_series("Victim response time (ms)")
    for pt, value in zip(grid_points, values):
        curve.add(dict(pt.params)["flood_rate"] / 1000.0, value)
    return FigureResult(
        title=(
            "Cluster SYN flood absorbed at the balancer "
            f"({n_backends} backends)"
        ),
        x_label="kSYN/s",
        series=[curve],
    )


def main() -> None:
    """Print both cluster-isolation tables."""
    print(run(fast=False).render())
    print()
    print(run_synflood(fast=False).render())


if __name__ == "__main__":
    main()
