"""Cluster-simulation benchmark: one engine driving N+1 kernels.

For each cluster size (``SWEEP_POINTS`` backends plus the balancer
host), boots the bound configuration of the cluster-isolation harness
-- RC kernels, per-tenant class containers, usage-weighted routing,
global principals with the window aggregator running -- under a pure
victim workload (closed-loop static requests through the balancer),
and reports both axes the roadmap asks for:

* **simulated** throughput (spliced responses per simulated second)
  and mean end-to-end client latency, which should stay flat as
  backends are added (the balancer host is the contended resource); and
* **simulator** cost: wall-clock seconds and engine events/sec for the
  run, which is the price of multi-kernel simulation on one event
  engine.

``python -m repro bench-cluster`` runs the sweep and writes
``BENCH_cluster.json``.
"""

from __future__ import annotations

import json
import time

from repro.experiments.fig_cluster_isolation import (
    _start_clients,
    build_cluster,
)

#: Backend counts swept (the balancer host is additional).
SWEEP_POINTS = (2, 8, 32)

#: Simulated warm-up and measurement horizons per point.
WARMUP_S = 0.1
MEASURE_S = 0.4

#: Benchmark seed (distinct from the figure's, so sweep caches never
#: collide across harnesses).
SEED = 90


def bench_point(n_backends: int) -> dict:
    """Boot, warm up, and measure one cluster size."""
    cluster, balancer, principals = build_cluster("bound", n_backends, seed=SEED)
    latencies_us: list = []
    _start_clients(cluster, n_backends, False, latencies_us)
    cluster.run(seconds=WARMUP_S)
    del latencies_us[:]
    spliced_before = balancer.stats_spliced
    events_before = cluster.sim.events_dispatched
    started = time.perf_counter()
    cluster.run(seconds=MEASURE_S)
    elapsed = time.perf_counter() - started
    spliced = balancer.stats_spliced - spliced_before
    events = cluster.sim.events_dispatched - events_before
    mean_latency_us = (
        sum(latencies_us) / len(latencies_us) if latencies_us else 0.0
    )
    return {
        "backends": n_backends,
        "hosts": n_backends + 1,
        "sim_seconds": MEASURE_S,
        "responses": spliced,
        "responses_per_sim_sec": round(spliced / MEASURE_S, 1),
        "mean_latency_ms": round(mean_latency_us / 1_000.0, 3),
        "windows_rolled": (
            principals.windows_rolled if principals is not None else 0
        ),
        "wall_s": round(elapsed, 6),
        "events": events,
        "events_per_sec": round(events / elapsed, 1) if elapsed > 0 else 0.0,
    }


def run(points=SWEEP_POINTS) -> dict:
    """Run the sweep; returns the result document (JSON-ready)."""
    return {
        "benchmark": "cluster-simulation",
        "config": "bound",
        "warmup_s": WARMUP_S,
        "measure_s": MEASURE_S,
        "seed": SEED,
        "points": [bench_point(n) for n in points],
    }


def render(result: dict) -> str:
    """Human-readable table of one run() document."""
    lines = [
        "cluster simulation sweep (bound config, victim workload)",
        "",
        "    backends   resp/sim-s   latency-ms      wall-s    events/sec",
    ]
    for p in result["points"]:
        lines.append(
            f"    {p['backends']:>8}  {p['responses_per_sim_sec']:>11,.0f}"
            f"  {p['mean_latency_ms']:>11.3f}  {p['wall_s']:>10.3f}"
            f"  {p['events_per_sec']:>12,.0f}"
        )
    return "\n".join(lines)


def write_json(result: dict, path: str = "BENCH_cluster.json") -> str:
    """Write the result document; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


if __name__ == "__main__":  # pragma: no cover - manual runs
    doc = run()
    print(render(doc))
    print(f"\nwrote {write_json(doc)}")
