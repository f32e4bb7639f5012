"""The per-container CPU timeline (the observability profiler's fold of
the ``cpu.slice`` stream) against the resource-container ledgers."""

from repro import Host, SystemMode, ip_addr
from repro.apps.httpserver import EventDrivenServer
from repro.apps.webclient import HttpClient
from repro.obs import UNACCOUNTED


def test_timeline_reconciles_with_container_ledgers():
    """Every principal's timeline total must equal the matching
    container's *own* (non-subtree) CPU ledger, bit for bit: both fold
    the same ``cpu.slice`` stream, so any divergence means a charge was
    observed that was never booked (or vice versa)."""
    host = Host(mode=SystemMode.RC, seed=93, observe=True)
    host.kernel.fs.add_file("/index.html", 1024)
    host.kernel.fs.warm("/index.html")
    EventDrivenServer(host.kernel, use_containers=True).install()
    HttpClient(host.kernel, ip_addr(10, 0, 0, 1), "c").start(at_us=2_000.0)
    host.run(seconds=0.2)
    profiler = host.observability.profiler

    def walk(container):
        yield container
        for child in container.children:
            yield from walk(child)

    by_name = {c.name: c for c in walk(host.kernel.containers.root)}
    # Fold the kept slices in publish order -- the order the ledgers
    # were charged in -- so the sums are comparable bit for bit.
    totals: dict[str, float] = {}
    network: dict[str, float] = {}
    for piece in profiler.slices:
        if piece.subsystem == "disk":
            continue
        name = piece.container
        totals[name] = totals.get(name, 0.0) + piece.duration_us
        if piece.subsystem != "app":
            network[name] = network.get(name, 0.0) + piece.duration_us
    charged = {n: v for n, v in totals.items() if n != UNACCOUNTED}
    assert charged, "expected charged principals in a container run"
    for name, total_us in charged.items():
        container = by_name[name]
        assert total_us == container.usage.cpu_us
        assert network.get(name, 0.0) == container.usage.cpu_network_us
    assert totals[UNACCOUNTED] == (
        host.kernel.cpu.accounting.unaccounted_cpu_us
    )
