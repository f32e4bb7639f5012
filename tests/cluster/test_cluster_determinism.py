"""Byte-identical cluster runs per seed.

An 8-host cluster (balancer + 8 backends, two tenants, aggressors and
a SYN flood in play) is hashed over every ``cpu.slice`` record on every
host plus the balancer's forward/splice decisions.  Two invocations of
the same seed must agree bit-for-bit, and a different seed must
disagree (the digest actually covers the schedule).
"""

import hashlib

from repro.experiments.fig_cluster_isolation import (
    _start_clients,
    build_cluster,
)


def cluster_digest(seed: int = 31, n_backends: int = 8) -> str:
    """Digest of a seeded 8-host cluster run's full trace."""
    cluster, _balancer, _principals = build_cluster(
        "bound", n_backends, seed=seed
    )
    records = cluster.sim.trace.record(
        ["cpu.slice", "lb.forward", "lb.splice", "cluster.window"]
    )
    latencies_us: list = []
    _start_clients(cluster, n_backends, True, latencies_us)
    cluster.run(seconds=0.15)
    digest = hashlib.sha256()
    for record in records:
        data = record.data
        line = (
            f"{record.time:.6f}|{record.category}"
            f"|{data.get('host')}|{data.get('kind')}"
            f"|{data.get('amount_us')}|{data.get('charge')}"
            f"|{data.get('entity')}|{data.get('req')}"
            f"|{data.get('tenant')}|{data.get('backend')}"
            f"|{data.get('cpu_us')}\n"
        )
        digest.update(line.encode())
    return digest.hexdigest()


def test_same_seed_same_digest():
    assert cluster_digest(seed=31) == cluster_digest(seed=31)


def test_different_seed_different_digest():
    assert cluster_digest(seed=31) != cluster_digest(seed=32)
