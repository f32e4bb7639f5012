#!/usr/bin/env python
"""Operator console: precise billing, timelines, and bandwidth tiers.

Section 4.8: "Because resource containers enable precise accounting for
the costs of an activity, they may be useful to administrators simply
for sending accurate bills to customers, and for use in capacity
planning."  This example runs two hosted customers with different
service tiers -- one CPU-sandboxed and bandwidth-shaped -- then prints:

* the per-customer invoice (CPU, network CPU, packets, connections);
* a capacity-planning footer (billed vs. unaccounted machine time);
* a CPU profile of where the machine actually went, by container,
  subsystem and phase.

Run:  python examples/accounting_console.py
"""

from __future__ import annotations

from repro import Host, SystemMode, fixed_share_attrs, ip_addr
from repro.apps.httpserver import EventDrivenServer
from repro.apps.webclient import HttpClient
from repro.metrics.billing import BillingReport, Tariff
from repro.net.qos import NetworkQos
from repro.obs.profile import SimProfiler

CUSTOMERS = [
    # (name, CPU share, egress cap B/s, #clients, port)
    ("acme-gold", 0.60, None, 25, 8001),
    ("zeta-basic", 0.25, 2_000_000.0, 25, 8002),
]


def main() -> None:
    host = Host(mode=SystemMode.RC, seed=99)
    host.kernel.fs.add_file("/page.html", 8 * 1024)
    host.kernel.fs.warm("/page.html")
    profiler = SimProfiler(host.sim.trace, keep_slices=False)

    for index, (name, share, egress, n_clients, port) in enumerate(CUSTOMERS):
        attrs = fixed_share_attrs(share)
        if egress is not None:
            attrs = attrs.updated(
                network_qos=NetworkQos(tx_rate_bytes_per_sec=egress)
            )
        root = host.kernel.containers.create(f"cust:{name}", attrs=attrs)
        server = EventDrivenServer(
            host.kernel,
            port=port,
            use_containers=True,
            container_parent_cid=root.cid,
            name=name,
        )
        server.process = host.kernel.spawn_process(
            name, server.main, parent_container=root
        )
        for client_index in range(n_clients):
            HttpClient(
                host.kernel,
                ip_addr(10, 40 + index, 0, 1) + client_index,
                f"{name}-c{client_index}",
                path="/page.html",
                server_port=port,
            ).start(at_us=3_000.0 + 150.0 * client_index)

    seconds = 4.0
    host.run(seconds=seconds)

    report = BillingReport.generate(
        host.kernel.containers,
        elapsed_us=host.now,
        tariff=Tariff(per_cpu_second=0.05, per_million_packets=1.0,
                      per_connection=0.0002),
        customer_filter=lambda c: c.name.startswith("cust:"),
        unaccounted_cpu_us=host.kernel.cpu.accounting.unaccounted_cpu_us,
    )
    print(report.render())
    print()
    print(profiler.render(limit=8))
    print()
    shaper = host.kernel.stack.shaper
    print(
        f"egress shaping: {shaper.stats_shaped_segments:,} segments shaped, "
        f"{shaper.stats_delayed_us / 1e6:.2f}s of cumulative delay injected"
    )


if __name__ == "__main__":
    main()
