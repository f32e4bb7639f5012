"""Cross-host conservation: Σ member ledgers == cluster ledger.

The checker recomputes every global container's totals from the
members' live cumulative counters and compares them against the
incrementally-built cluster ledger.  A clean cluster run must produce
zero violations; a tampered ledger (the classic "lost delta" bug the
incremental path could hide) must be caught at the next window.
"""

import pytest

from repro.analysis import sanitizer
from repro.analysis.cluster_conservation import ClusterConservationChecker
from repro.apps.httpserver import MultiThreadedServer
from repro.apps.webclient import HttpClient
from repro.cluster import (
    Cluster,
    ClusterPrincipals,
    LoadBalancer,
    backend_specs,
    tenant_specs,
)
from repro.kernel.kernel import SystemMode
from repro.net.packet import ip_addr

TENANTS = ["gold", "bronze"]


def busy_cluster(seed=11, sanitize=True):
    cluster = Cluster(mode=SystemMode.RC, seed=seed, sanitize=sanitize)
    cluster.add_host("lb", n_cpus=2, irq_core=1)
    names = ["be-00", "be-01"]
    for name in names:
        cluster.add_host(name)
        kernel = cluster.kernel(name)
        kernel.fs.add_file("/index.html", 1024)
        kernel.fs.warm("/index.html")
        MultiThreadedServer(
            kernel, specs=backend_specs(TENANTS), n_threads=4,
            use_containers=True,
        ).install()
    principals = ClusterPrincipals(cluster, window_us=10_000.0)
    by_tenant = {}
    for tenant in TENANTS:
        principal = principals.create(tenant)
        principal.add_member("lb", f"lb:class:{tenant}")
        for name in names:
            principal.add_member(name, f"mt-httpd:class:{tenant}")
        by_tenant[tenant] = principal
    LoadBalancer(
        cluster, "lb", names,
        specs=tenant_specs(TENANTS),
        principals=by_tenant,
        use_containers=True,
    ).install()
    for index, tenant in enumerate(TENANTS):
        subnet = 1 if tenant == "gold" else 2
        for i in range(2):
            HttpClient(
                cluster.kernel("lb"),
                ip_addr(10, subnet, 0, 10 + i),
                f"{tenant}-{i}",
                think_time_us=400.0,
                rng=cluster.sim.rng.fork(f"{tenant}-{i}"),
            ).start(at_us=2_000.0 + (index * 2 + i) * 103.0)
    return cluster, principals


def drain_checkers():
    """Pop anything this module's clusters registered process-wide."""
    return sanitizer.drain_installed()


def test_clean_run_has_no_violations():
    cluster, principals = busy_cluster()
    try:
        assert isinstance(principals.checker, ClusterConservationChecker)
        cluster.run(seconds=0.3)
        violations = principals.checker.finish()
        assert violations == []
        assert principals.checker.windows_checked > principals.windows_rolled
        assert "OK" in principals.checker.summary()
    finally:
        drain_checkers()


def test_sanitize_env_optin(monkeypatch):
    monkeypatch.setenv(sanitizer.SANITIZE_ENV, "1")
    cluster = Cluster(mode=SystemMode.RC, seed=12)
    try:
        principals = ClusterPrincipals(cluster)
        assert principals.checker is not None
    finally:
        drain_checkers()


def test_off_by_default():
    cluster = Cluster(mode=SystemMode.RC, seed=12)
    principals = ClusterPrincipals(cluster)
    assert principals.checker is None
    assert drain_checkers() == []


def test_tampered_ledger_detected():
    cluster, principals = busy_cluster(seed=13)
    try:
        cluster.run(seconds=0.15)
        gold = principals.principals[0]
        assert gold.ledger.cpu_us > 0
        # Lose a delta: the next reconcile must flag the mismatch.
        gold.ledger.cpu_us -= 25.0
        cluster.run(seconds=0.05)
        violations = principals.checker.violations
        assert any(
            v.check == "cluster-ledger-conservation" for v in violations
        )
        assert "violation" in principals.checker.summary()
    finally:
        drain_checkers()


@pytest.mark.parametrize("name", ["packets_received", "disk_bytes"])
def test_tampered_count_field_detected(name):
    """Every cumulative field is reconciled, not only the CPU and byte
    counters the cluster ledger first aggregated."""
    cluster, principals = busy_cluster(seed=17)
    try:
        cluster.run(seconds=0.15)
        gold = principals.principals[0]
        assert gold.ledger.packets_received > 0
        setattr(gold.ledger, name, getattr(gold.ledger, name) + 3)
        cluster.run(seconds=0.05)
        assert any(
            v.check == "cluster-ledger-conservation"
            and ("counter", name) in v.context
            for v in principals.checker.violations
        )
    finally:
        drain_checkers()


def test_tampered_window_usage_detected():
    cluster, principals = busy_cluster(seed=14)
    try:
        cluster.run(seconds=0.15)
        gold = principals.principals[0]
        original_roll = gold.roll

        def lying_roll(kernels):
            original_roll(kernels)
            gold.window_cpu_us += 77.0  # throttle decision sees a lie

        gold.roll = lying_roll
        cluster.run(seconds=0.05)
        assert any(
            v.check == "cluster-window-delta"
            for v in principals.checker.violations
        )
    finally:
        drain_checkers()


def test_shrinking_ledger_detected():
    cluster, principals = busy_cluster(seed=15)
    try:
        cluster.run(seconds=0.15)
        bronze = principals.principals[1]
        checker = principals.checker
        before = len(checker.violations)
        # Rewind the ledger far enough that the conservation tolerance
        # cannot mask it: both the Σ-members check and the monotone
        # check must fire.
        bronze.ledger.cpu_us = 0.0
        bronze.ledger.cpu_network_us = 0.0
        cluster.run(seconds=0.05)
        checks = {v.check for v in checker.violations[before:]}
        assert "cluster-ledger-monotone" in checks
    finally:
        drain_checkers()


def test_unknown_member_host_detected():
    cluster, principals = busy_cluster(seed=16)
    try:
        gold = principals.principals[0]
        gold.add_member("no-such-host", "x")
        # The aggregator requires valid hosts: the first window roll
        # fails fast rather than silently skipping the member.
        with pytest.raises(KeyError):
            cluster.run(seconds=0.02)
        # The checker's independent sweep reports it as a violation
        # instead of crashing (it audits, it doesn't aggregate).
        principals.checker.on_window(principals)
        assert any(
            v.check == "cluster-member-host"
            for v in principals.checker.violations
        )
    finally:
        drain_checkers()
