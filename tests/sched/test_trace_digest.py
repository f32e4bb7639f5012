"""Schedule-order determinism, and the scheduler against its oracle.

The indexed :class:`ContainerScheduler` must be *bit-for-bit* the
specified policy: every pick, charge, and preemption of a seeded run
has to happen at the same simulated instant for the same entity as
with the scan-everything :class:`~tests.sched.oracle.ReferenceScheduler`
written from the policy's key.  The digest runs a busy mixed workload
(event-driven HTTP server with per-request containers, a CPU-capped CGI
sand-box, and a SYN flood against a priority-zero container) and hashes
every ``cpu.slice`` trace record -- kind, time, duration, charged
container, entity.

``EXPECTED_DIGEST`` was first recorded with the original linear-scan
scheduler; that scan is now the oracle, and
:func:`test_reference_scheduler_reproduces_the_digest` runs it as the
kernel's scheduler to show the digest still is the specified policy.
If a future scheduler change alters this digest, it reordered the
schedule; that may be intentional, but it must be an explicit decision
(re-record the digest in the same PR and say why, and change the
oracle with it), never a silent side effect of a perf change.

Re-recorded with the repro.io disk subsystem: file reads lost the flat
CPU miss penalty in favour of an asynchronous device phase, and the
event-driven server now serves static files through container-bound
descriptors (an extra OpenFile/ContainerBindSocket per class) -- both
deliberately reshape the schedule, so the old digest could not survive.
"""

import hashlib
from typing import Optional

from repro import Host, SystemMode, ip_addr
from repro.apps.httpserver import CgiPolicy, EventDrivenServer
from repro.apps.synflood import SynFlooder
from repro.apps.webclient import HttpClient
from repro.kernel.kernel import KernelConfig
from tests.sched.oracle import ReferenceScheduler

EXPECTED_DIGEST = (
    "aac1667cbd348c51d5d69a01e6bfc213367900855c0d85fb43adc8e0eba8f54e"
)


def scheduling_digest(
    seed: int = 20990131, config: Optional[KernelConfig] = None
) -> str:
    """Digest of every CPU slice of a seeded mixed run."""
    host = Host(mode=SystemMode.RC, seed=seed, config=config)
    host.kernel.fs.add_file("/index.html", 1024)
    host.kernel.fs.warm("/index.html")
    records = host.sim.trace.record(["cpu.slice"])
    server = EventDrivenServer(
        host.kernel,
        use_containers=True,
        cgi=CgiPolicy(cpu_us=30_000.0, cpu_limit=0.3),
        event_api="select",
    )
    server.install()
    clients = [
        HttpClient(
            host.kernel,
            ip_addr(10, 0, 0, i + 1),
            f"c{i}",
            think_time_us=400.0,
            rng=host.sim.rng.fork(f"c{i}"),
        )
        for i in range(6)
    ]
    for index, client in enumerate(clients):
        client.start(at_us=2_000.0 + index * 131.0)
    cgi_client = HttpClient(
        host.kernel, ip_addr(10, 0, 1, 1), "cgi", path="/cgi/x",
        timeout_us=60_000_000.0,
    )
    cgi_client.start(at_us=11_000.0)
    flooder = SynFlooder(
        host.kernel, rate_per_sec=3_000.0, batch=4,
        rng=host.sim.rng.fork("flood"),
    )
    flooder.start(at_us=80_000.0)
    host.run(seconds=0.4)
    digest = hashlib.sha256()
    for record in records:
        line = (
            f"{record.time:.6f}|{record.data.get('kind')}"
            f"|{record.data.get('amount_us'):.6f}"
            f"|{record.data.get('charge')}|{record.data.get('entity')}\n"
        )
        digest.update(line.encode())
    return digest.hexdigest()


def test_seeded_schedule_digest_is_stable():
    # Twice in one process: ids are per-simulation, so nothing an
    # earlier run created can shift the second digest.
    assert scheduling_digest() == EXPECTED_DIGEST
    assert scheduling_digest() == EXPECTED_DIGEST


def test_reference_scheduler_reproduces_the_digest():
    config = KernelConfig(
        scheduler_factory=lambda kernel: ReferenceScheduler(
            kernel.containers.root,
            quantum_us=kernel.config.quantum_us,
            window_us=kernel.config.window_us,
        )
    )
    assert scheduling_digest(config=config) == EXPECTED_DIGEST
