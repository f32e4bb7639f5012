"""The benchmark's four workloads, built through the repo's public API.

Each workload boots its hosts from a seed, exposes the engine it runs
on, and counts its own unit of work ("op").  They build the same points
as the paper-figure harnesses, but call their set-up functions and run
the engine in fixed simulated chunks, so the benchmark can time a window
that excludes set-up and warm-up, and no sweep cache can serve a result.

* ``synflood`` -- Fig. 14's resource-container point: the event-API
  server with SYN-drop notification and the filtering defense, 25
  closed-loop static clients, 40,000 bogus SYN/s.  Op: one completed
  client request.  The per-packet path does most of the work.
* ``cluster`` -- the cluster-isolation harness's bound configuration
  with 8 backends behind a load balancer (9 kernels on one engine),
  closed-loop victim clients, global-principal windows on.  Op: one
  spliced response.  No flood, no disk.
* ``disk`` -- disk isolation with the weighted-fair disk queue: 16
  cache-defeating antagonists and a persistent premium client over a
  4 KB buffer cache.  Op: one completed disk request.  The only
  workload where the io, fs and mem layers work.
* ``spinner`` -- 1000 CPU-bound processes (800 us bursts) on the RC
  kernel, no network.  Op: one burst completed, i.e. one CPU slice
  dispatched.  A scheduler stress test with a heavy set-up.
"""

from __future__ import annotations

from repro import Host, SystemMode
from repro.apps.httpserver import EventDrivenServer, ListenSpec, SynFloodDefense
from repro.apps.synflood import SynFlooder
from repro.apps.webclient import HttpClient
from repro.experiments import fig_disk_isolation as disk_fig
from repro.experiments.common import make_host, static_clients
from repro.experiments.fig_cluster_isolation import _start_clients, build_cluster
from repro.kernel.kernel import KernelConfig
from repro.metrics.stats import ThroughputMeter
from repro.syscall import api


class Workload:
    """One seeded workload: hosts, clients and an op counter.

    Subclasses set the run shape (simulated warm-up, chunk length and
    chunk count of the timed window) and build everything from the seed
    in ``__init__``.
    """

    name = ""
    warmup_s = 0.0
    chunk_s = 0.0
    chunks = 0

    def __init__(self) -> None:
        self.sim = None
        self.kernels: list = []
        self.clients: list = []
        self.fabric = None

    def run(self, seconds: float) -> None:
        """Advance the engine by ``seconds`` of simulated time."""
        self.sim.run(until=self.sim.now + seconds * 1e6)

    def ops(self) -> int:
        """Cumulative ops completed."""
        raise NotImplementedError

    def start_window(self) -> None:
        """Called once, at the start of the timed window."""

    def figure(self) -> float:
        """The figure statistic of the timed window (or of the run)."""
        raise NotImplementedError


class SynFlood(Workload):
    name = "synflood"
    warmup_s = 0.5
    chunk_s = 0.1
    chunks = 6

    def __init__(self, seed: int) -> None:
        super().__init__()
        host = make_host(SystemMode.RC, seed=seed)
        server = EventDrivenServer(
            host.kernel,
            specs=[ListenSpec("default", notify_syn_drop=True)],
            use_containers=True,
            event_api="eventapi",
            defense=SynFloodDefense(threshold=5),
        )
        server.install()
        self.meter = ThroughputMeter()
        server.stats.meter = self.meter
        self.clients = static_clients(host, 25, timeout_us=400_000.0)
        SynFlooder(
            host.kernel,
            rate_per_sec=40_000.0,
            batch=10,
            rng=host.sim.rng.fork("flood"),
        ).start(at_us=50_000.0)
        self.sim = host.sim
        self.kernels = [host.kernel]

    def ops(self) -> int:
        return sum(client.stats_completed for client in self.clients)

    def start_window(self) -> None:
        self.meter.start(self.sim.now)

    def figure(self) -> float:
        """Useful static throughput, requests per simulated second."""
        self.meter.stop(self.sim.now)
        return self.meter.rate_per_second()


class ClusterBound(Workload):
    name = "cluster"
    n_backends = 8
    warmup_s = 0.1
    chunk_s = 0.05
    chunks = 5

    def __init__(self, seed: int) -> None:
        super().__init__()
        cluster, self.balancer, _principals = build_cluster(
            "bound", self.n_backends, seed=seed
        )
        self.latencies_us: list = []
        self.clients = _start_clients(
            cluster, self.n_backends, False, self.latencies_us
        )
        self.sim = cluster.sim
        self.kernels = [host.kernel for host in cluster.hosts.values()]
        self.fabric = cluster.fabric

    def ops(self) -> int:
        return self.balancer.stats_spliced

    def start_window(self) -> None:
        del self.latencies_us[:]

    def figure(self) -> float:
        """Mean victim response time in the window, milliseconds."""
        return sum(self.latencies_us) / len(self.latencies_us) / 1_000.0


class DiskIsolation(Workload):
    name = "disk"
    n_antag = 16
    warmup_s = 0.3
    chunk_s = 0.25
    chunks = 24

    def __init__(self, seed: int) -> None:
        super().__init__()
        config = KernelConfig(
            io_scheduler="wfq", buffer_cache_bytes=disk_fig.CACHE_BYTES
        )
        host = make_host(SystemMode.RC, seed=seed, config=config)
        fs = host.kernel.fs
        fs.add_file(disk_fig.PREMIUM_PATH, disk_fig.PREMIUM_SIZE)
        for index in range(self.n_antag):
            fs.add_file(f"/antag-{index}.bin", disk_fig.ANTAG_SIZE)
        EventDrivenServer(
            host.kernel,
            specs=[
                ListenSpec(
                    "premium", priority=10, weight=disk_fig.PREMIUM_WEIGHT
                ),
            ],
            use_containers=True,
        ).install()
        self.latencies_us: list = []
        premium = HttpClient(
            host.kernel,
            src_addr=disk_fig.PREMIUM_ADDR,
            name="premium",
            path=disk_fig.PREMIUM_PATH,
            persistent=True,
            think_time_us=disk_fig.THINK_US,
            rng=host.sim.rng.fork("premium"),
            on_complete=lambda _c, _r, latency: self.latencies_us.append(
                latency
            ),
        )
        premium.start(at_us=2_000.0)
        self.clients = [premium]
        for index in range(self.n_antag):
            host.kernel.spawn_process(
                f"antag-{index}",
                disk_fig._antagonist_body(f"/antag-{index}.bin", index),
            )
        self.sim = host.sim
        self.kernels = [host.kernel]

    def ops(self) -> int:
        return self.kernels[0].disk.requests_completed

    def start_window(self) -> None:
        del self.latencies_us[:]

    def figure(self) -> float:
        """Mean premium response time in the window, milliseconds."""
        return sum(self.latencies_us) / len(self.latencies_us) / 1_000.0


class Spinner(Workload):
    name = "spinner"
    processes = 1000
    burst_us = 800.0
    warmup_s = 0.05
    chunk_s = 0.1
    chunks = 30

    def __init__(self, seed: int) -> None:
        super().__init__()
        host = Host(mode=SystemMode.RC, seed=seed)
        self.bursts = [0]
        bursts = self.bursts
        burst_us = self.burst_us

        def body():
            while True:
                yield api.Compute(burst_us)
                bursts[0] += 1

        for index in range(self.processes):
            host.kernel.spawn_process(f"spin{index}", body)
        self.sim = host.sim
        self.kernels = [host.kernel]

    def ops(self) -> int:
        return self.bursts[0]

    def figure(self) -> float:
        """Jain's fairness index of per-process CPU since boot."""
        cpu = [
            process.default_container.usage.cpu_us
            for process in self.kernels[0].processes.values()
        ]
        total = sum(cpu)
        return total * total / (len(cpu) * sum(x * x for x in cpu))


WORKLOADS = {cls.name: cls for cls in (SynFlood, ClusterBound, DiskIsolation, Spinner)}


def _sockets(kernel) -> list:
    seen = {}
    for socket in list(kernel.stack.bound_sockets) + list(kernel.stack.listeners):
        seen[id(socket)] = socket
    return list(seen.values())


def counters(workload: Workload) -> dict:
    """Cumulative exact counts read from public state."""
    kernels = workload.kernels
    fabric_packets = 0
    if workload.fabric is not None:
        names = list(workload.fabric.kernels)
        fabric_packets = sum(
            workload.fabric.link(src, dst).packets_sent
            for src in names
            for dst in names
            if src != dst
        )
    return {
        "sim_us": workload.sim.now,
        "ops": workload.ops(),
        "events": workload.sim.events_dispatched,
        "charge_flushes": sum(k.cpu.charge_flushes for k in kernels),
        "early_drops": sum(k.stats_early_drops for k in kernels),
        "packets_in": sum(k.stack.stats_packets_in for k in kernels),
        "syns_dropped": sum(
            s.stats_syns_dropped for k in kernels for s in _sockets(k)
        ),
        "steals": sum(k.scheduler.steals for k in kernels),
        "disk_busy_us": sum(k.disk.busy_us for k in kernels),
        "cache_hits": sum(k.fs.cache.hits for k in kernels),
        "cache_misses": sum(k.fs.cache.misses for k in kernels),
        "fabric_packets": fabric_packets,
        "completed": sum(c.stats_completed for c in workload.clients),
        "retries": sum(c.stats_retries for c in workload.clients),
        "hosts": len(kernels),
    }


def exact_metrics(before: dict, after: dict) -> dict:
    """Per-layer exact counts over the window between two snapshots."""
    d = {key: after[key] - before[key] for key in before}
    ops = d["ops"]
    lookups = d["cache_hits"] + d["cache_misses"]
    attempts = d["completed"] + d["retries"]
    return {
        "sim.events_per_op": d["events"] / ops,
        "kernel.charge_flushes_per_op": d["charge_flushes"] / ops,
        "kernel.early_drops_per_op": d["early_drops"] / ops,
        "net.packets_in_per_op": d["packets_in"] / ops,
        "net.syns_dropped_per_op": d["syns_dropped"] / ops,
        "sched.steals_per_op": d["steals"] / ops,
        "io.device_busy_share": d["disk_busy_us"] / (d["sim_us"] * after["hosts"]),
        "fs.cache_hit_ratio": d["cache_hits"] / lookups if lookups else 0.0,
        "cluster.fabric_packets_per_op": d["fabric_packets"] / ops,
        "apps.useful_ratio": d["completed"] / attempts if attempts else 0.0,
    }
