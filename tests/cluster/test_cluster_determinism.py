"""Byte-identical cluster runs per seed.

An 8-host cluster (balancer + 8 backends, two tenants, aggressors and
a SYN flood in play) is hashed over every ``cpu.slice`` record on every
host plus the balancer's forward/splice decisions.  Two invocations of
the same seed must agree bit-for-bit, and a different seed must
disagree (the digest actually covers the schedule).
"""

import contextlib
import hashlib
import itertools

from repro.experiments.fig_cluster_isolation import (
    _start_clients,
    build_cluster,
)


@contextlib.contextmanager
def _fresh_id_counters():
    """Reset the module-level id streams feeding names in the digest.

    Same pattern as ``tests/sched/test_trace_digest.py``: container,
    packet, connection, request, process ids are drawn from global
    ``itertools.count`` streams, so the digest would otherwise depend
    on how many objects earlier tests created in this process.
    """
    from repro.apps import mailserver as mail_mod
    from repro.apps import webclient as webclient_mod
    from repro.apps.httpserver import cgi as cgi_mod
    from repro.core import container as container_mod
    from repro.kernel import events as kevents_mod
    from repro.kernel import process as process_mod
    from repro.net import packet as packet_mod
    from repro.net import tcp as tcp_mod

    saved = [
        (container_mod, "_container_ids"),
        (process_mod, "_pids"),
        (process_mod, "_tids"),
        (packet_mod, "_packet_seq"),
        (tcp_mod, "_conn_ids"),
        (kevents_mod, "_event_seq"),
        (cgi_mod, "_cgi_ids"),
        (webclient_mod, "_request_ids"),
        (mail_mod, "_message_ids"),
    ]
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr in saved]
    for mod, attr in saved:
        setattr(mod, attr, itertools.count(1))
    try:
        yield
    finally:
        for mod, attr, counter in originals:
            setattr(mod, attr, counter)


def cluster_digest(seed: int = 31, n_backends: int = 8) -> str:
    """Digest of a seeded 8-host cluster run's full trace."""
    with _fresh_id_counters():
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
