"""Runs in one process are independent, with no reset between them.

Every id (container, pid, tid, connection, packet, request, CGI) comes
from the run's own :class:`~repro.sim.engine.Simulation`, so nothing an
earlier run allocated can show in the next one.  Two more back-to-back
checks live with the runs they repeat: the mixed workload hits
``EXPECTED_DIGEST`` on consecutive calls
(``tests/sched/test_trace_digest.py``), and an observed run's Chrome
trace and registry exports are byte-identical across consecutive runs
(``tests/obs/test_observability.py``).
"""

from repro import Host, SystemMode, ip_addr
from repro.apps.httpserver import EventDrivenServer
from repro.apps.webclient import HttpClient


def _served_host() -> tuple:
    host = Host(mode=SystemMode.RC, seed=5)
    host.kernel.fs.add_file("/index.html", 1024)
    host.kernel.fs.warm("/index.html")
    arrivals = host.sim.trace.record(["net.arrival"])
    server = EventDrivenServer(host.kernel, use_containers=True)
    server.install()
    client = HttpClient(host.kernel, ip_addr(10, 0, 0, 1), "c0")
    client.start(at_us=1_000.0)
    host.run(seconds=0.05)
    return host, server, client, arrivals


def test_each_host_numbers_its_ids_from_one():
    for _ in range(2):
        host, server, client, arrivals = _served_host()
        assert host.kernel.containers.root.cid == 1
        assert server.process.pid == 1
        assert server.process.threads[0].tid == 1
        assert client.stats_completed > 1
        assert arrivals[0].data["seq"] == 1
        requests = [r.data["req"] for r in arrivals if r.data["req"]]
        assert requests[0] == 1
