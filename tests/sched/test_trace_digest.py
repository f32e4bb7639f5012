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

The mixed run rarely leaves one thread alone in the ready index, so a
second digest covers the disk-isolation setup (one CPU, weighted-fair
disk queue, no flood), where the event-driven server is usually the
only runnable thread and production parks it between its slices (see
``ContainerScheduler._pick_parked``): production and the oracle must
hash equal there too.
"""

import hashlib
from typing import Optional

from repro import Host, SystemMode, ip_addr
from repro.apps.httpserver import CgiPolicy, EventDrivenServer, ListenSpec
from repro.apps.synflood import SynFlooder
from repro.apps.webclient import HttpClient
from repro.experiments import fig_disk_isolation as disk
from repro.experiments.common import make_host
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
    return _slice_digest(records)


def _slice_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        line = (
            f"{record.time:.6f}|{record.data.get('kind')}"
            f"|{record.data.get('amount_us'):.6f}"
            f"|{record.data.get('charge')}|{record.data.get('entity')}\n"
        )
        digest.update(line.encode())
    return digest.hexdigest()


def _reference_factory(kernel):
    return ReferenceScheduler(
        kernel.containers.root,
        quantum_us=kernel.config.quantum_us,
        window_us=kernel.config.window_us,
    )


def disk_isolation_digest(seed: int = 51, scheduler_factory=None) -> tuple:
    """(digest of every CPU slice, picks, picks served by the parked
    winner) of the disk-isolation point: a premium client against
    eight cache-defeating antagonists under the weighted-fair queue."""
    config = KernelConfig(
        io_scheduler="wfq",
        buffer_cache_bytes=disk.CACHE_BYTES,
        scheduler_factory=scheduler_factory,
    )
    host = make_host(SystemMode.RC, seed=seed, config=config)
    host.kernel.fs.add_file(disk.PREMIUM_PATH, disk.PREMIUM_SIZE)
    for index in range(8):
        host.kernel.fs.add_file(f"/antag-{index}.bin", disk.ANTAG_SIZE)
    records = host.sim.trace.record(["cpu.slice"])
    EventDrivenServer(
        host.kernel,
        specs=[ListenSpec("premium", priority=10, weight=disk.PREMIUM_WEIGHT)],
        use_containers=True,
    ).install()
    HttpClient(
        host.kernel,
        src_addr=disk.PREMIUM_ADDR,
        name="premium",
        path=disk.PREMIUM_PATH,
        persistent=True,
        think_time_us=disk.THINK_US,
        rng=host.sim.rng.fork("premium"),
    ).start(at_us=2_000.0)
    for index in range(8):
        host.kernel.spawn_process(
            f"antag-{index}", disk._antagonist_body(f"/antag-{index}.bin", index)
        )
    scheduler = host.kernel.scheduler
    counts = {"picks": 0, "parked": 0}
    pick = scheduler.pick_for_cpu

    def counting_pick(now, cpu, exclude=None):
        counts["picks"] += 1
        counts["parked"] += getattr(scheduler, "_parked", None) is not None
        return pick(now, cpu, exclude)

    scheduler.pick_for_cpu = counting_pick
    host.run(seconds=0.3)
    return _slice_digest(records), counts["picks"], counts["parked"]


def test_seeded_schedule_digest_is_stable():
    # Twice in one process: ids are per-simulation, so nothing an
    # earlier run created can shift the second digest.
    assert scheduling_digest() == EXPECTED_DIGEST
    assert scheduling_digest() == EXPECTED_DIGEST


def test_reference_scheduler_reproduces_the_digest():
    config = KernelConfig(scheduler_factory=_reference_factory)
    assert scheduling_digest(config=config) == EXPECTED_DIGEST


def test_disk_isolation_digest_matches_the_reference_scheduler():
    production, picks, parked = disk_isolation_digest()
    reference, reference_picks, _ = disk_isolation_digest(
        scheduler_factory=_reference_factory
    )
    assert production == reference
    assert picks == reference_picks
    assert parked > picks // 4  # the parked winner is what is covered
