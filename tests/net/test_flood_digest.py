"""The SYN-flood packet path's schedule, pinned by digest.

The point is the benchmark's ``synflood`` workload (Fig. 14's defended
server: event-API server with SYN-drop notification and the filtering
defence, 25 closed-loop static clients, 40,000 bogus SYN/s), run for
0.3 simulated seconds with tracing on.  Every early-demultiplexing
decision (``net.demux``), net-thread enqueue or overflow drop
(``net.enqueue``), dispatch (``sched.dispatch``) and CPU slice
(``cpu.slice``) is hashed, so a change to filter matching, the net
thread's queues or its scheduling priority that moves one packet or
one slice fails here.  The LRP twin runs the same server and load
under Lazy Receiver Processing, whose per-socket queues take the other
key path through ``KernelNetThread.enqueue``; LRP has no container
API, so its server runs without containers and without the defence.

Re-pin only for a deliberate schedule change, and say why in
CHANGES.md (``scripts/verify.sh`` tier-0b pins the same digests).
"""

import hashlib

import pytest

from repro import SystemMode
from repro.apps.httpserver import EventDrivenServer, ListenSpec, SynFloodDefense
from repro.apps.synflood import SynFlooder
from repro.experiments.common import make_host, static_clients

CATEGORIES = ["net.demux", "net.enqueue", "sched.dispatch", "cpu.slice"]

EXPECTED = {
    SystemMode.RC: "422aa856b96e840ae02cc669ebd6dac39108f31929bc007c53829383be8e1943",
    SystemMode.LRP: "bdec70cbcaa2cd01ea1b78d65b16f465683b3dc1eb352bc696351441f144dc51",
}


def flood_path_digest(mode: SystemMode, seed: int = 1, seconds: float = 0.3):
    """(sha256, record count) over the flood path's trace records."""
    host = make_host(mode, seed=seed)
    records = host.sim.trace.record(CATEGORIES)
    rc = mode is SystemMode.RC
    EventDrivenServer(
        host.kernel,
        specs=[ListenSpec("default", notify_syn_drop=True)],
        use_containers=rc,
        event_api="eventapi",
        defense=SynFloodDefense(threshold=5) if rc else None,
    ).install()
    static_clients(host, 25, timeout_us=400_000.0)
    SynFlooder(
        host.kernel,
        rate_per_sec=40_000.0,
        batch=10,
        rng=host.sim.rng.fork("flood"),
    ).start(at_us=50_000.0)
    host.run(seconds=seconds)
    h = hashlib.sha256()
    for record in records:
        fields = "|".join(f"{k}={v!r}" for k, v in sorted(record.data.items()))
        h.update(f"{record.time:.6f}|{record.category}|{fields}\n".encode())
    return h.hexdigest(), len(records)


@pytest.mark.parametrize("mode", [SystemMode.RC, SystemMode.LRP], ids=str)
def test_flood_path_digest(mode):
    digest, count = flood_path_digest(mode)
    assert count > 10_000  # the flood reached the net thread's queues
    assert digest == EXPECTED[mode]
