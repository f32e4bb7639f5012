"""TCP stack semantics through a live kernel."""

import pytest

from repro import Host, SystemMode
from repro.apps.webclient import HttpClient, HttpRequest
from repro.net.packet import Packet, PacketKind, ip_addr
from repro.net.tcp import ConnState, HalfOpen, ListenSocket
from repro.syscall import api


def make_listening_host(mode=SystemMode.RC, backlog=8):
    host = Host(mode=mode, seed=9)
    state = {}

    def server():
        fd = yield api.Socket()
        yield api.Bind(fd, 80)
        yield api.Listen(fd, backlog=backlog)
        state["lfd"] = fd
        yield api.Sleep(1e9)

    host.kernel.spawn_process("srv", server)
    host.run(until_us=1_000.0)
    return host, state


class RecordingClient:
    """Minimal ClientEndpoint capturing callbacks."""

    def __init__(self, host):
        self.host = host
        self.synacks = []
        self.established = []
        self.responses = []
        self.closes = []

    def on_synack(self, half_open):
        self.synacks.append(half_open)

    def on_established(self, conn):
        self.established.append(conn)

    def on_response(self, conn, payload, size_bytes):
        self.responses.append((payload, size_bytes))

    def on_server_close(self, conn):
        self.closes.append(conn)


def test_syn_reaches_syn_queue():
    host, _ = make_listening_host()
    client = RecordingClient(host)
    host.kernel.net_input(
        Packet(seq=1, kind=PacketKind.SYN, src_addr=ip_addr(1, 2, 3, 4), payload=client)
    )
    host.run(until_us=5_000.0)
    socket = host.kernel.stack.listeners[0]
    assert socket.stats_syns_received == 1
    assert client.synacks  # SYN|ACK delivered to the client


def test_full_handshake_fills_accept_queue():
    host, _ = make_listening_host()
    client = RecordingClient(host)
    host.kernel.net_input(
        Packet(seq=1, kind=PacketKind.SYN, src_addr=ip_addr(1, 2, 3, 4), payload=client)
    )
    host.run(until_us=2_000.0)
    half_open = client.synacks[0]
    host.kernel.net_input(
        Packet(
            seq=2, kind=PacketKind.HANDSHAKE_ACK,
            src_addr=ip_addr(1, 2, 3, 4),
            payload=half_open,
        )
    )
    host.run(until_us=4_000.0)
    socket = host.kernel.stack.listeners[0]
    assert len(socket.accept_queue) == 1
    assert client.established


def test_syn_queue_overflow_evicts_oldest():
    host, _ = make_listening_host(backlog=4)
    clients = [RecordingClient(host) for _ in range(6)]
    for index, client in enumerate(clients):
        host.kernel.net_input(
            Packet(
                seq=1, kind=PacketKind.SYN,
                src_addr=ip_addr(1, 2, 3, index + 1),
                payload=client,
            )
        )
    host.run(until_us=10_000.0)
    socket = host.kernel.stack.listeners[0]
    assert len(socket.syn_queue) == 4
    assert socket.stats_syns_dropped == 2
    # The evicted entries are the oldest two.
    evicted_addrs = {ip_addr(1, 2, 3, 1), ip_addr(1, 2, 3, 2)}
    remaining = {h.src_addr for h in socket.syn_queue}
    assert evicted_addrs.isdisjoint(remaining)


def test_handshake_ack_removes_its_own_halfopen_not_an_equal_one():
    # Two embryonic connections with equal fields are still two entries:
    # the ACK for the second must leave the first queued.
    host, _ = make_listening_host()
    socket = host.kernel.stack.listeners[0]
    client = RecordingClient(host)
    first, second = (
        HalfOpen(
            client=client,
            src_addr=ip_addr(1, 2, 3, 4),
            src_port=1234,
            listen_socket=socket,
            created_at=host.now,
        )
        for _ in range(2)
    )
    socket.syn_queue.extend([first, second])
    host.kernel.net_input(
        Packet(
            seq=1, kind=PacketKind.HANDSHAKE_ACK,
            src_addr=ip_addr(1, 2, 3, 4),
            payload=second,
        )
    )
    host.run(until_us=4_000.0)
    assert len(socket.syn_queue) == 1 and socket.syn_queue[0] is first
    assert len(socket.accept_queue) == 1


def test_handshake_ack_for_evicted_halfopen_ignored():
    host, _ = make_listening_host(backlog=1)
    first = RecordingClient(host)
    host.kernel.net_input(
        Packet(seq=1, kind=PacketKind.SYN, src_addr=ip_addr(1, 1, 1, 1), payload=first)
    )
    host.run(until_us=2_000.0)
    half_open = first.synacks[0]
    # Second SYN evicts the first half-open.
    second = RecordingClient(host)
    host.kernel.net_input(
        Packet(seq=2, kind=PacketKind.SYN, src_addr=ip_addr(2, 2, 2, 2), payload=second)
    )
    host.run(until_us=4_000.0)
    host.kernel.net_input(
        Packet(
            seq=3, kind=PacketKind.HANDSHAKE_ACK,
            src_addr=ip_addr(1, 1, 1, 1),
            payload=half_open,
        )
    )
    host.run(until_us=6_000.0)
    socket = host.kernel.stack.listeners[0]
    assert len(socket.accept_queue) == 0
    assert not first.established


def test_stray_syn_without_listener_dropped():
    host = Host(mode=SystemMode.UNMODIFIED, seed=9)
    client = RecordingClient(host)
    host.kernel.net_input(
        Packet(seq=1, kind=PacketKind.SYN, src_addr=ip_addr(1, 2, 3, 4), payload=client)
    )
    host.run(until_us=2_000.0)
    assert host.kernel.stack.stats_stray == 1
    assert not client.synacks


def test_early_demux_drops_stray_before_protocol_cost():
    """In RC mode unmatched traffic dies at demux (LRP early discard)."""
    host = Host(mode=SystemMode.RC, seed=9)
    client = RecordingClient(host)
    host.kernel.net_input(
        Packet(seq=1, kind=PacketKind.SYN, src_addr=ip_addr(1, 2, 3, 4), payload=client)
    )
    host.run(until_us=2_000.0)
    assert host.kernel.stats_early_drops == 1
    # Only interrupt + demux CPU was burnt (plus nothing else runs).
    costs = host.kernel.costs
    assert host.kernel.cpu.accounting.total_cpu_us == pytest.approx(
        costs.interrupt_per_packet + costs.early_demux
    )


def test_demux_prefers_most_specific_listener():
    host = Host(mode=SystemMode.RC, seed=9)
    from repro.net.filters import AddrFilter

    def server():
        fd_all = yield api.Socket()
        yield api.Bind(fd_all, 80)
        yield api.Listen(fd_all)
        fd_net = yield api.Socket()
        yield api.Bind(
            fd_net, 80, AddrFilter(template=ip_addr(66, 6, 6, 0), prefix_len=24)
        )
        yield api.Listen(fd_net)
        yield api.Sleep(1e9)

    host.kernel.spawn_process("srv", server)
    host.run(until_us=1_000.0)
    stack = host.kernel.stack
    inside = stack.demux_listener(80, ip_addr(66, 6, 6, 42))
    outside = stack.demux_listener(80, ip_addr(10, 0, 0, 1))
    assert inside.addr_filter is not None
    assert outside.addr_filter is None


def test_connection_inherits_listen_socket_container():
    host = Host(mode=SystemMode.RC, seed=9)
    holder = {}

    def server():
        fd = yield api.Socket()
        yield api.Bind(fd, 80)
        yield api.Listen(fd)
        cfd = yield api.ContainerCreate("class")
        yield api.ContainerBindSocket(fd, cfd)
        holder["lfd"] = fd
        yield api.Sleep(1e9)

    host.kernel.spawn_process("srv", server)
    host.run(until_us=1_000.0)
    client = RecordingClient(host)
    host.kernel.net_input(
        Packet(seq=1, kind=PacketKind.SYN, src_addr=ip_addr(1, 2, 3, 4), payload=client)
    )
    host.run(until_us=3_000.0)
    half_open = client.synacks[0]
    host.kernel.net_input(
        Packet(
            seq=2, kind=PacketKind.HANDSHAKE_ACK,
            src_addr=ip_addr(1, 2, 3, 4),
            payload=half_open,
        )
    )
    host.run(until_us=6_000.0)
    socket = host.kernel.stack.listeners[0]
    conn = socket.accept_queue[0]
    assert conn.container is socket.container
    assert conn.container.name == "class"


def test_fin_after_server_close_releases_connection(rc_host):
    """Both directions closed => connection fully released."""
    host = rc_host
    done = {}

    def server():
        lfd = yield api.Socket()
        yield api.Bind(lfd, 80)
        yield api.Listen(lfd)
        fd = yield api.Accept(lfd)
        message = yield api.Read(fd)
        yield api.Write(fd, payload=message, size_bytes=1024)
        yield api.Close(fd)
        done["closed"] = True
        yield api.Sleep(1e9)

    host.kernel.spawn_process("srv", server)
    client = HttpClient(host.kernel, ip_addr(5, 5, 5, 5), "c")
    client.start(at_us=1_000.0)
    host.run(until_us=50_000.0)
    assert done.get("closed")
    assert client.stats_completed == 1
