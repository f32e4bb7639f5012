"""Per-container egress QoS shaping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Host, SystemMode, ip_addr
from repro.core.attributes import ContainerAttributes, fixed_share_attrs
from repro.core.container import ResourceContainer
from repro.net.qos import NetworkQos, TransmitShaper, effective_qos


def shaped_container(rate, burst=8 * 1024, parent=None):
    attrs = ContainerAttributes(
        network_qos=NetworkQos(tx_rate_bytes_per_sec=rate, burst_bytes=burst)
    )
    return ResourceContainer(1, "shaped", attrs=attrs, parent=parent)


def test_qos_validation():
    with pytest.raises(ValueError):
        NetworkQos(tx_rate_bytes_per_sec=0.0)
    with pytest.raises(ValueError):
        NetworkQos(burst_bytes=-1)


def test_unshaped_container_passes_through():
    shaper = TransmitShaper()
    container = ResourceContainer(1, "plain")
    assert shaper.release_delay(container, 100_000, now=0.0) == 0.0
    assert shaper.release_delay(None, 100_000, now=0.0) == 0.0


def test_burst_absorbs_initial_segments():
    shaper = TransmitShaper()
    container = shaped_container(rate=1e6, burst=4096)  # 1 MB/s
    # Two 1 KB segments fit the 4 KB burst: no delay.
    assert shaper.release_delay(container, 1024, now=0.0) == 0.0
    assert shaper.release_delay(container, 1024, now=0.0) == 0.0


def test_sustained_rate_enforced():
    shaper = TransmitShaper()
    rate = 1e6  # bytes/sec
    container = shaped_container(rate=rate, burst=1024)
    total = 0
    last_delay = 0.0
    for _ in range(100):
        last_delay = shaper.release_delay(container, 1024, now=0.0)
        total += 1024
    # 100 KB at 1 MB/s = ~100 ms; burst shaves one segment's worth.
    assert last_delay == pytest.approx((total - 1024) * 1e6 / rate, rel=0.01)


def test_idle_link_regains_credit_bounded():
    shaper = TransmitShaper()
    container = shaped_container(rate=1e6, burst=2048)
    shaper.release_delay(container, 2048, now=0.0)
    shaper.release_delay(container, 2048, now=0.0)
    # Long idle: credit is capped at one burst, not unbounded.
    delay = shaper.release_delay(container, 64 * 1024, now=1e9)
    assert delay == pytest.approx((64 * 1024 - 2048) * 1e6 / 1e6, rel=0.01)


def test_effective_qos_takes_tightest_ancestor():
    parent = ResourceContainer(
        2, "p",
        attrs=ContainerAttributes(
            sched_class=fixed_share_attrs(0.5).sched_class,
            fixed_share=0.5,
            network_qos=NetworkQos(tx_rate_bytes_per_sec=1e5),
        ),
    )
    child = shaped_container(rate=1e7, parent=parent)
    qos = effective_qos(child)
    assert qos.tx_rate_bytes_per_sec == 1e5


def test_forget_resets_state():
    shaper = TransmitShaper()
    container = shaped_container(rate=1e3, burst=0)
    shaper.release_delay(container, 10_000, now=0.0)
    shaper.forget(container)
    # Fresh state: burst 0 => delay equals one service time exactly.
    delay = shaper.release_delay(container, 1_000, now=0.0)
    assert delay == pytest.approx(1_000 * 1e6 / 1e3)


@given(
    sizes=st.lists(st.integers(64, 8192), min_size=1, max_size=50),
    rate=st.floats(1e4, 1e8),
)
@settings(max_examples=60, deadline=None)
def test_shaper_never_exceeds_rate(sizes, rate):
    """Property: cumulative release times respect the configured rate
    (modulo one burst)."""
    shaper = TransmitShaper()
    burst = 4096
    container = shaped_container(rate=rate, burst=burst)
    now = 0.0
    sent = 0
    for size in sizes:
        delay = shaper.release_delay(container, size, now)
        sent += size
        release_time = now + delay
        # bytes released by release_time <= burst + rate * time
        assert sent <= burst + rate * (release_time / 1e6) + size * 1e-6 + 1e-6 * rate


def test_end_to_end_bandwidth_tiering():
    """Two client classes, one shaped to a low rate: its download times
    stretch while the unshaped class is unaffected."""
    from repro.apps.httpserver import EventDrivenServer, ListenSpec
    from repro.apps.webclient import HttpClient
    from repro.net.filters import AddrFilter
    from repro.syscall import api

    slow_addr = ip_addr(10, 7, 7, 7)
    host = Host(mode=SystemMode.RC, seed=91)
    host.kernel.fs.add_file("/big.bin", 100 * 1024)
    host.kernel.fs.warm("/big.bin")
    specs = [
        ListenSpec(
            "cheap",
            addr_filter=AddrFilter(template=slow_addr, prefix_len=32),
        ),
        ListenSpec("full"),
    ]
    server = EventDrivenServer(
        host.kernel, specs=specs, use_containers=True, event_api="select"
    )
    server.install()
    host.run(until_us=1_000.0)
    # Shape the cheap class to 1 MB/s from outside the app (an admin
    # action on the class container).
    cheap = next(
        c
        for c in host.kernel.containers.all_containers()
        if c.name == "httpd:class:cheap"
    )
    cheap.attrs = cheap.attrs.updated(
        network_qos=NetworkQos(tx_rate_bytes_per_sec=1e6, burst_bytes=1024)
    )
    slow = HttpClient(host.kernel, slow_addr, "slow", path="/big.bin")
    fast = HttpClient(host.kernel, ip_addr(10, 0, 0, 1), "fast", path="/big.bin")
    slow.start(at_us=2_000.0)
    fast.start(at_us=2_000.0)
    host.run(seconds=1.0)
    # 100 KB at 1 MB/s ~= 100 ms per download for the shaped class.
    assert slow.mean_latency_ms() > 50.0
    assert fast.mean_latency_ms() < 10.0
    assert fast.stats_completed > 5 * slow.stats_completed
