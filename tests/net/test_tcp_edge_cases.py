"""TCP edge cases: memory limits, segmentation, teardown orders."""

import pytest

from repro import Host, SystemMode, ip_addr
from repro.core.attributes import ContainerAttributes
from repro.net.packet import Packet, PacketKind
from repro.syscall import api

from tests.net.test_tcp import RecordingClient, make_listening_host


def test_memory_limit_drops_rx_data():
    """A container over its memory limit sheds incoming data (the
    socket-buffer control of section 4.4)."""
    host, _state = make_listening_host()
    client = RecordingClient(host)
    host.kernel.net_input(
        Packet(seq=1, kind=PacketKind.SYN, src_addr=ip_addr(1, 2, 3, 4), payload=client)
    )
    host.run(until_us=3_000.0)
    host.kernel.net_input(
        Packet(
            seq=2, kind=PacketKind.HANDSHAKE_ACK,
            src_addr=ip_addr(1, 2, 3, 4),
            payload=client.synacks[0],
        )
    )
    host.run(until_us=6_000.0)
    socket = host.kernel.stack.listeners[0]
    conn = socket.accept_queue[0]
    # Clamp the charge target's memory.
    target = conn.charge_target()
    target.attrs = ContainerAttributes(memory_limit_bytes=600)
    for index in range(3):
        host.kernel.net_input(
            Packet(
                seq=3, kind=PacketKind.DATA,
                src_addr=ip_addr(1, 2, 3, 4),
                conn=conn,
                payload=f"seg{index}",
                size_bytes=256,
            )
        )
    host.run(until_us=12_000.0)
    # Two 256-byte segments fit under 600; the third was shed.
    assert len(conn.rx_segments) == 2
    assert target.usage.packets_dropped == 1
    assert target.usage.memory_bytes == 512


def test_write_cost_scales_with_segments():
    """Large responses pay per-segment transmit costs (via the syscall
    layer's entry-cost computation)."""
    host = Host(mode=SystemMode.RC, seed=97)
    executor = host.kernel.executor
    costs = host.kernel.costs

    class _FakeThread:
        process = None

    small = executor.entry_cost(
        api.Write(fd=0, payload=None, size_bytes=1024), _FakeThread()
    )
    large = executor.entry_cost(
        api.Write(fd=0, payload=None, size_bytes=60 * 1024), _FakeThread()
    )
    assert small == pytest.approx(
        costs.syscall_write_base + costs.proto_tx_segment
    )
    assert large == pytest.approx(
        costs.syscall_write_base + 43 * costs.proto_tx_segment
    )


def test_client_fin_before_server_close_is_eof():
    """Client half-closes first: the server read returns None (EOF)."""
    host = Host(mode=SystemMode.RC, seed=97)
    outcome = {}

    def server():
        lfd = yield api.Socket()
        yield api.Bind(lfd, 80)
        yield api.Listen(lfd)
        fd = yield api.Accept(lfd)
        first = yield api.Read(fd)
        outcome["first"] = first
        second = yield api.Read(fd)  # after FIN: EOF
        outcome["second"] = second
        yield api.Close(fd)

    host.kernel.spawn_process("srv", server)
    host.run(until_us=1_000.0)
    client = RecordingClient(host)
    host.kernel.net_input(
        Packet(seq=1, kind=PacketKind.SYN, src_addr=ip_addr(1, 1, 1, 1), payload=client)
    )
    host.run(until_us=3_000.0)
    host.kernel.net_input(
        Packet(
            seq=2, kind=PacketKind.HANDSHAKE_ACK,
            src_addr=ip_addr(1, 1, 1, 1),
            payload=client.synacks[0],
        )
    )
    host.run(until_us=6_000.0)
    conn = client.established[0]
    host.kernel.net_input(
        Packet(seq=3, kind=PacketKind.DATA, src_addr=ip_addr(1, 1, 1, 1), conn=conn,
               payload="hello", size_bytes=64)
    )
    host.run(until_us=9_000.0)
    host.kernel.net_input(
        Packet(seq=4, kind=PacketKind.FIN, src_addr=ip_addr(1, 1, 1, 1), conn=conn)
    )
    host.run(until_us=20_000.0)
    assert outcome["first"] == "hello"
    assert outcome["second"] is None


def test_data_after_close_is_stray():
    host, _state = make_listening_host()
    client = RecordingClient(host)
    host.kernel.net_input(
        Packet(seq=1, kind=PacketKind.SYN, src_addr=ip_addr(1, 1, 1, 1), payload=client)
    )
    host.run(until_us=3_000.0)
    host.kernel.net_input(
        Packet(
            seq=2, kind=PacketKind.HANDSHAKE_ACK,
            src_addr=ip_addr(1, 1, 1, 1),
            payload=client.synacks[0],
        )
    )
    host.run(until_us=6_000.0)
    conn = client.established[0]
    host.kernel.stack.server_close(conn)
    host.kernel.net_input(
        Packet(seq=3, kind=PacketKind.FIN, src_addr=ip_addr(1, 1, 1, 1), conn=conn)
    )
    host.run(until_us=9_000.0)
    # Connection fully released; further data is ignored as stray.
    before = host.kernel.stack.stats_stray + host.kernel.stats_early_drops
    host.kernel.net_input(
        Packet(seq=4, kind=PacketKind.DATA, src_addr=ip_addr(1, 1, 1, 1), conn=conn,
               payload="late", size_bytes=64)
    )
    host.run(until_us=12_000.0)
    after = host.kernel.stack.stats_stray + host.kernel.stats_early_drops
    assert after == before + 1


def test_double_server_close_is_idempotent():
    host, _state = make_listening_host()
    client = RecordingClient(host)
    host.kernel.net_input(
        Packet(seq=1, kind=PacketKind.SYN, src_addr=ip_addr(1, 1, 1, 1), payload=client)
    )
    host.run(until_us=3_000.0)
    host.kernel.net_input(
        Packet(
            seq=2, kind=PacketKind.HANDSHAKE_ACK,
            src_addr=ip_addr(1, 1, 1, 1),
            payload=client.synacks[0],
        )
    )
    host.run(until_us=6_000.0)
    conn = client.established[0]
    host.kernel.stack.server_close(conn)
    host.kernel.stack.server_close(conn)  # no error, no double notify
    host.run(until_us=8_000.0)
    assert len(client.closes) == 1
