"""Fabric link model: latency, serialization, queueing, egress hook."""

import pytest

from repro.cluster import Cluster, Fabric
from repro.net.packet import PacketKind, alloc_packet, ip_addr
from repro.sim.engine import Simulation


def test_delay_is_latency_plus_serialization():
    sim = Simulation(seed=1)
    fabric = Fabric(sim, latency_us=40.0, bytes_per_us=100.0)
    # 500 bytes at 100 B/us = 5 us on the wire, plus 40 us propagation.
    assert fabric.delay_us("a", "b", 500) == pytest.approx(45.0)


def test_back_to_back_sends_queue_on_one_link():
    sim = Simulation(seed=1)
    fabric = Fabric(sim, latency_us=10.0, bytes_per_us=1.0)
    # First segment: 100 us serialization + 10 us latency.
    assert fabric.delay_us("a", "b", 100) == pytest.approx(110.0)
    # Second, sent at the same instant, waits for the transmitter:
    # 100 us queueing + 50 us serialization + 10 us latency.
    assert fabric.delay_us("a", "b", 50) == pytest.approx(160.0)
    # The reverse direction is a different link: no queueing.
    assert fabric.delay_us("b", "a", 50) == pytest.approx(60.0)


def test_transmitter_frees_up_as_time_passes():
    sim = Simulation(seed=1)
    fabric = Fabric(sim, latency_us=10.0, bytes_per_us=1.0)
    fabric.delay_us("a", "b", 100)
    sim.after(200.0, lambda: None)
    sim.run(until=200.0)
    # The backlog drained at t=100; a fresh send pays no queueing.
    assert fabric.delay_us("a", "b", 50) == pytest.approx(60.0)


def test_per_link_configuration_overrides_defaults():
    sim = Simulation(seed=1)
    fabric = Fabric(sim, latency_us=50.0, bytes_per_us=125.0)
    fabric.link("a", "b", latency_us=5.0, bytes_per_us=1000.0)
    assert fabric.delay_us("a", "b", 1000) == pytest.approx(6.0)
    # Unconfigured pairs use the fabric-wide defaults.
    assert fabric.delay_us("a", "c", 1000) == pytest.approx(58.0)


def test_link_stats_accumulate():
    sim = Simulation(seed=1)
    fabric = Fabric(sim, latency_us=10.0, bytes_per_us=100.0)
    fabric.delay_us("a", "b", 300)
    fabric.delay_us("a", "b", 200)
    link = fabric.link("a", "b")
    assert link.packets_sent == 2
    assert link.bytes_sent == 500


def test_invalid_link_parameters_raise():
    sim = Simulation(seed=1)
    with pytest.raises(ValueError):
        Fabric(sim, latency_us=-1.0).link("a", "b")
    with pytest.raises(ValueError):
        Fabric(sim, bytes_per_us=0.0).link("a", "b")


def test_duplicate_host_name_rejected():
    cluster = Cluster(seed=1)
    cluster.add_host("a")
    with pytest.raises(ValueError):
        cluster.fabric.attach("a", cluster.kernel("a"))


def test_send_delivers_to_destination_kernel():
    cluster = Cluster(seed=1, latency_us=30.0, bytes_per_us=64.0)
    cluster.add_host("a")
    cluster.add_host("b")
    seen = []
    cluster.kernel("b").net_input = lambda packet: seen.append(
        (cluster.now, packet.kind)
    )
    packet = alloc_packet(1, PacketKind.SYN, ip_addr(10, 0, 0, 1))
    cluster.fabric.send("a", "b", packet)
    cluster.run(until_us=1_000.0)
    assert seen == [(30.0 + 64 / 64.0, PacketKind.SYN)]


def test_egress_delay_distinguishes_fabric_endpoints():
    cluster = Cluster(seed=1, latency_us=25.0, bytes_per_us=100.0)
    cluster.add_host("a")
    cluster.add_host("b")

    class External:
        pass

    class OnFabric:
        fabric_host = "b"

    wire = cluster.kernel("a").stack.wire_delay_us
    assert cluster.fabric.egress_delay("a", External(), 200) == wire
    assert cluster.fabric.egress_delay("a", OnFabric(), 200) == pytest.approx(
        27.0
    )


def test_cluster_run_contract():
    cluster = Cluster(seed=1)
    with pytest.raises(ValueError):
        cluster.run()
    with pytest.raises(ValueError):
        cluster.run(seconds=1.0, until_us=5.0)
    cluster.run(until_us=500.0)
    assert cluster.now == 500.0
