"""Billing and capacity-planning reports."""

import pytest

from repro.core.attributes import fixed_share_attrs
from repro.core.operations import ContainerManager
from repro.kernel.accounting import ResourceUsage
from repro.metrics.billing import BillingReport, Tariff


@pytest.fixture
def populated():
    manager = ContainerManager()
    guest_a = manager.create("guest-a", attrs=fixed_share_attrs(0.5))
    leaf_a = manager.create("conn", parent=guest_a)
    guest_b = manager.create("guest-b", attrs=fixed_share_attrs(0.5))
    leaf_a.usage.charge_cpu(2_000_000.0, network=True)
    leaf_a.usage.packets_received = 1_000_000
    leaf_a.usage.connections_accepted = 100
    guest_b.usage.charge_cpu(500_000.0)
    return manager, guest_a, guest_b


def test_tariff_charges():
    tariff = Tariff(per_cpu_second=1.0, per_million_packets=2.0,
                    per_connection=0.5)
    amount = tariff.charge(ResourceUsage(
        cpu_us=3e6, packets_received=2_000_000, connections_accepted=4,
    ))
    assert amount == pytest.approx(3.0 + 4.0 + 2.0)


def test_tariff_charges_disk_dimensions():
    tariff = Tariff(per_cpu_second=0.0, per_million_packets=0.0,
                    per_connection=0.0, per_disk_second=2.0,
                    per_disk_gb=4.0)
    amount = tariff.charge(ResourceUsage(
        cpu_us=1e6, packets_received=10, connections_accepted=1,
        disk_us=5e5, disk_bytes=2**29,
    ))
    assert amount == pytest.approx(2.0 * 0.5 + 4.0 * 0.5)


def test_report_bills_subtrees(populated):
    manager, guest_a, _guest_b = populated
    report = BillingReport.generate(manager, elapsed_us=10e6)
    by_name = {line.name: line for line in report.lines}
    assert by_name["guest-a"].usage.cpu_us == pytest.approx(2_000_000.0)
    assert by_name["guest-a"].usage.packets_received == 1_000_000
    assert by_name["guest-b"].usage.cpu_us == pytest.approx(500_000.0)


def test_report_sorted_by_amount(populated):
    manager, *_ = populated
    report = BillingReport.generate(manager, elapsed_us=10e6)
    amounts = [line.amount for line in report.lines]
    assert amounts == sorted(amounts, reverse=True)


def test_customer_filter(populated):
    manager, *_ = populated
    report = BillingReport.generate(
        manager, elapsed_us=10e6,
        customer_filter=lambda c: c.name == "guest-a",
    )
    assert [line.name for line in report.lines] == ["guest-a"]


def test_render_contains_capacity_footer(populated):
    manager, *_ = populated
    report = BillingReport.generate(
        manager, elapsed_us=10e6, unaccounted_cpu_us=1e6
    )
    rendered = report.render()
    assert "Billing report" in rendered
    assert "capacity:" in rendered
    assert "25.0% of machine CPU billed" in rendered
    assert "10.0%" in rendered  # unaccounted


def test_render_golden_text(populated):
    """The invoice table's exact text, columns and amounts included."""
    manager, *_ = populated
    report = BillingReport.generate(
        manager, elapsed_us=10e6, unaccounted_cpu_us=1e6
    )
    assert report.render() == (
        "Billing report (per top-level resource container)\n"
        "customer                          CPU s  net CPU s   packets"
        "   conns   disk s  disk MB    amount\n"
        "guest-a                           2.000      2.000   1000000"
        "     100    0.000     0.00    0.5900\n"
        "guest-b                           0.500      0.000         0"
        "       0    0.000     0.00    0.0200\n"
        "capacity: 25.0% of machine CPU billed, 10.0% unaccounted "
        "(interrupts/system)"
    )


def test_end_to_end_billing_from_live_host():
    from repro import Host, SystemMode, ip_addr
    from repro.apps.httpserver import EventDrivenServer
    from repro.apps.webclient import HttpClient

    host = Host(mode=SystemMode.RC, seed=73)
    host.kernel.fs.add_file("/index.html", 1024)
    host.kernel.fs.warm("/index.html")
    EventDrivenServer(host.kernel, use_containers=True).install()
    client = HttpClient(host.kernel, ip_addr(10, 0, 0, 1), "c")
    client.start(at_us=2_000.0)
    host.run(seconds=0.5)
    report = BillingReport.generate(
        host.kernel.containers,
        elapsed_us=host.now,
        unaccounted_cpu_us=host.kernel.cpu.accounting.unaccounted_cpu_us,
    )
    assert report.lines
    assert report.total_billed_cpu_us() > 0
    assert any(line.usage.connections_accepted > 0 for line in report.lines)


def test_billing_reconciles_with_resource_usage_ledgers():
    """The invoice total must be exactly the root's subtree CPU ledger,
    and billed + unaccounted must re-compose the CPU accounting total.
    This is the billing-level restatement of the charging-conservation
    invariant the sanitizer enforces per-slice."""
    from repro import Host, SystemMode, ip_addr
    from repro.apps.httpserver import EventDrivenServer
    from repro.apps.webclient import HttpClient
    from repro.core.hierarchy import subtree_usage

    host = Host(mode=SystemMode.RC, seed=73, sanitize=True)
    host.kernel.fs.add_file("/index.html", 1024)
    host.kernel.fs.warm("/index.html")
    EventDrivenServer(host.kernel, use_containers=True).install()
    HttpClient(host.kernel, ip_addr(10, 0, 0, 1), "c").start(at_us=2_000.0)
    host.run(seconds=0.3)
    accounting = host.kernel.cpu.accounting
    report = BillingReport.generate(
        host.kernel.containers,
        elapsed_us=host.now,
        unaccounted_cpu_us=accounting.unaccounted_cpu_us,
    )
    # Line-by-line: each invoice equals that customer's subtree ledger.
    for line in report.lines:
        container = next(
            c for c in host.kernel.containers.root.children
            if c.name == line.name
        )
        assert line.usage == subtree_usage(container)
    # Totals: billed == root subtree; billed + unaccounted == machine.
    assert report.total_billed_cpu_us() == (
        subtree_usage(host.kernel.containers.root).cpu_us
    )
    assert report.total_billed_cpu_us() + accounting.unaccounted_cpu_us \
        == pytest.approx(accounting.total_cpu_us, rel=1e-9)


def test_disk_billing_reconciles_with_device_and_ledgers():
    """Disk invoices must re-compose the device's own meters bit for
    bit: billed disk service + unaccounted == total busy time, and each
    customer's disk line equals its subtree ledger."""
    from repro import Host, SystemMode, ip_addr
    from repro.apps.httpserver import EventDrivenServer
    from repro.apps.webclient import HttpClient
    from repro.core.hierarchy import subtree_usage

    host = Host(mode=SystemMode.RC, seed=74, sanitize=True)
    # Cold files and a tiny cache: every request takes the disk path.
    host.kernel.fs.add_file("/cold.bin", 16 * 1024)
    host.kernel.fs.cache.capacity_bytes = 1024
    EventDrivenServer(host.kernel, use_containers=True).install()
    HttpClient(
        host.kernel, ip_addr(10, 0, 0, 1), "c", path="/cold.bin",
    ).start(at_us=2_000.0)
    host.run(seconds=0.3)
    disk = host.kernel.disk
    assert disk.requests_completed > 0
    report = BillingReport.generate(
        host.kernel.containers, elapsed_us=host.now
    )
    for line in report.lines:
        container = next(
            c for c in host.kernel.containers.root.children
            if c.name == line.name
        )
        usage = subtree_usage(container)
        assert line.usage.disk_us == usage.disk_us
        assert line.usage.disk_bytes == usage.disk_bytes
    assert report.total_billed_disk_us() > 0
    assert report.total_billed_disk_us() + disk.unaccounted_us \
        == pytest.approx(disk.busy_us, rel=1e-9)
    # Disk consumption prices into the invoice amount.
    tariff = Tariff()
    for line in report.lines:
        assert line.amount == pytest.approx(tariff.charge(line.usage))
