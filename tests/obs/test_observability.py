"""End-to-end observability: wiring, reconciliation, determinism."""

import json

import pytest

from repro import Host, SystemMode, ip_addr
from repro.apps.httpserver import EventDrivenServer
from repro.apps.webclient import HttpClient
from repro.obs import Observability, UNACCOUNTED
from repro.obs.export import chrome_trace, jsonl_lines, validate_chrome_trace
from repro.obs import observe as observe_mod


def _run_workload(observe=True, seed=41, seconds=0.2):
    host = Host(mode=SystemMode.RC, seed=seed, observe=observe)
    host.kernel.fs.add_file("/index.html", 1024)
    host.kernel.fs.warm("/index.html")
    EventDrivenServer(host.kernel, use_containers=True).install()
    for i in range(3):
        HttpClient(
            host.kernel, ip_addr(10, 0, 0, i + 1), f"c{i}",
            think_time_us=700.0, rng=host.sim.rng.fork(f"c{i}"),
        ).start(at_us=2_000.0 + i * 97.0)
    host.run(seconds=seconds)
    return host


def test_host_observe_flag_attaches_observability():
    host = _run_workload(observe=True)
    obs = host.observability
    assert isinstance(obs, Observability)
    assert obs.profiler.total_us > 0
    assert obs.tracer.completed_requests()
    assert len(obs.registry) > 0
    assert "observability:" in obs.summary()


def test_unobserved_host_has_inactive_bus():
    host = Host(mode=SystemMode.RC, seed=41)
    assert host.observability is None
    assert not host.sim.trace.active


def test_env_variable_attaches_observability(monkeypatch):
    monkeypatch.setenv(observe_mod.TRACE_ENV, "1")
    host = Host(mode=SystemMode.RC, seed=41)
    assert host.observability is not None
    # And it registered for CLI draining.
    assert host.observability in observe_mod.installed()
    observe_mod.drain_installed()
    assert observe_mod.installed() == []


def test_profiler_reconciles_with_container_ledgers():
    """Every microsecond the profiler attributes to a container must be
    exactly that container's CPU ledger, and the grand total must be
    the CPU accounting total -- telemetry and billing agree bit for
    bit because they fold the same charge stream."""
    host = _run_workload()
    profiler = host.observability.profiler

    def walk(container):
        yield container
        for child in container.children:
            yield from walk(child)

    by_name = {c.name: c for c in walk(host.kernel.containers.root)}
    totals = profiler.container_totals()
    charged = {n: v for n, v in totals.items() if n != UNACCOUNTED}
    assert charged
    for name, amount in charged.items():
        assert amount == pytest.approx(by_name[name].usage.cpu_us,
                                       rel=1e-12, abs=1e-9)
    # Network-flagged CPU (net-thread protocol work and interrupts,
    # i.e. everything not "app") is the network split of the ledger.
    network: dict[str, float] = {}
    for (name, subsystem, _phase), amount in sorted(profiler.totals.items()):
        if name != UNACCOUNTED and subsystem != "app":
            network[name] = network.get(name, 0.0) + amount
    assert any(network.values())
    for name in charged:
        assert network.get(name, 0.0) == pytest.approx(
            by_name[name].usage.cpu_network_us, rel=1e-12, abs=1e-9
        )
    accounting = host.kernel.cpu.accounting
    assert totals.get(UNACCOUNTED, 0.0) == pytest.approx(
        accounting.unaccounted_cpu_us, rel=1e-12, abs=1e-9
    )
    assert profiler.total_us == pytest.approx(
        accounting.total_cpu_us, rel=1e-12
    )


def test_registry_cpu_counters_match_profiler():
    host = _run_workload()
    obs = host.observability
    for name, amount in obs.profiler.container_totals().items():
        counter = obs.registry.get(name, "cpu", "charged_us")
        assert counter is not None
        assert counter.value == pytest.approx(amount, rel=1e-12)


def test_request_spans_cover_client_latencies():
    host = _run_workload()
    obs = host.observability
    completed = obs.tracer.completed_requests()
    assert completed
    for root in completed:
        # The root opens at the DATA packet's NIC arrival; the client's
        # latency clock starts earlier (connect + handshake), so the
        # span bounds the latency from below.
        assert 0.0 < root.duration_us() <= root.attrs["latency_us"]
        names = {c.name for c in obs.tracer.children_of(root)}
        assert {"net.protocol", "app", "net.response"} <= names
    # Latency histogram count equals completed request spans.
    total_observed = sum(
        m.count
        for (c, s, n), m in (
            ((k[0], k[1], k[2]), obs.registry.get(*k))
            for k in obs.registry.keys()
        )
        if s == "client" and n == "latency_us"
    )
    assert total_observed == len(completed)


def test_exports_are_byte_identical_across_runs(tmp_path):
    """The acceptance gate in miniature: the same (tree, params, seed)
    run twice in one process must export byte-identical artifacts."""

    def one_run(outdir):
        host = _run_workload(seconds=0.1)
        paths = host.observability.export(outdir)
        return {p.name: p.read_bytes() for p in paths}

    first = one_run(tmp_path / "a")
    second = one_run(tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    # The exported chrome document also passes schema validation.
    document = json.loads(first["trace-events.json"])
    assert validate_chrome_trace(document) == []


def test_observing_does_not_change_results():
    """Observation must be pure: the seeded workload's client stats are
    identical with and without the whole obs stack attached."""

    def client_stats(observe):
        host = _run_workload(observe=observe, seconds=0.1)
        accounting = host.kernel.cpu.accounting
        return (accounting.total_cpu_us, accounting.unaccounted_cpu_us,
                host.now)

    assert client_stats(False) == client_stats(True)


def _run_smp_workload(n_cpus=4, seed=47, seconds=0.2):
    from repro.apps.httpserver import MultiThreadedServer
    from repro.kernel.kernel import KernelConfig

    config = KernelConfig(mode=SystemMode.RC, n_cpus=n_cpus)
    host = Host(mode=SystemMode.RC, seed=seed, config=config, observe=True)
    host.kernel.fs.add_file("/index.html", 2048)
    host.kernel.fs.warm("/index.html")
    MultiThreadedServer(host.kernel, n_threads=8).install()
    for i in range(10):
        HttpClient(
            host.kernel, ip_addr(10, 0, 0, i + 1), f"c{i}",
            think_time_us=500.0, rng=host.sim.rng.fork(f"c{i}"),
        ).start(at_us=2_000.0 + i * 111.0)
    host.run(seconds=seconds)
    return host


def test_smp_chrome_trace_has_one_lane_per_core():
    host = _run_smp_workload()
    obs = host.observability
    document = chrome_trace(obs.profiler, obs.tracer)
    assert validate_chrome_trace(document) == []
    from repro.obs.export import CORES_PID

    events = document["traceEvents"]
    lane_names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
        and e["pid"] == CORES_PID
    }
    assert lane_names == {f"core {i}" for i in range(4)}
    # Every core saw work, and the core lanes mirror the dispatcher's
    # per-core ledgers exactly.
    by_core = {}
    for event in events:
        if event["ph"] == "X" and event["pid"] == CORES_PID:
            by_core[event["tid"]] = by_core.get(event["tid"], 0.0) + event["dur"]
    assert set(by_core) == {0, 1, 2, 3}
    for core, busy in enumerate(host.kernel.cpu.core_busy_us):
        assert by_core[core] == pytest.approx(busy, rel=1e-12)


def test_smp_registry_core_counters_reconcile():
    host = _run_smp_workload()
    registry = host.observability.registry
    cpu = host.kernel.cpu
    for core, busy in enumerate(cpu.core_busy_us):
        counter = registry.get(f"core:{core}", "core", "busy_us")
        assert counter is not None
        assert counter.value == pytest.approx(busy, rel=1e-12)
        idle = registry.get(f"core:{core}", "core", "idle_us")
        # Busy plus booked idle never exceeds elapsed time (the tail
        # after the core's last slice stays unbooked).
        booked = counter.value + (idle.value if idle is not None else 0.0)
        assert booked <= host.now * (1 + 1e-9)
    steal_total = sum(
        registry.get(*key).value
        for key in registry.keys()
        if key[1] == "core" and key[2] == "steals"
    )
    assert steal_total == host.kernel.scheduler.steals > 0


def test_smp_exports_are_byte_identical_across_runs(tmp_path):
    def one_run(outdir):
        host = _run_smp_workload(seconds=0.1)
        paths = host.observability.export(outdir)
        return {p.name: p.read_bytes() for p in paths}

    first = one_run(tmp_path / "a")
    second = one_run(tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
