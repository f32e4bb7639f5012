"""Simplified TCP: listen sockets, handshakes, connections, teardown.

This module holds the *semantic* protocol actions; the CPU cost of each
action and the context it runs in (softirq / LRP thread / container
thread) are decided by the caller (:mod:`repro.net.procmodel` and the
kernel dispatcher).  Keeping semantics separate from charging is the
whole point of the paper: the same protocol work can be charged to
nobody, to a process, or to a resource container.

Client endpoints live *outside* the simulated host (they model the
testbed's client machines); they interact through the
:class:`ClientEndpoint` callback protocol and never consume server CPU
except through the packets they send.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Protocol

from repro.kernel.waitq import WaitQueue
from repro.net.filters import AddrFilter, best_match
from repro.net.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import ResourceContainer
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process


class ClientEndpoint(Protocol):
    """Callbacks a simulated client machine implements."""

    def on_synack(self, half_open: "HalfOpen") -> None:
        """The server accepted our SYN; finish the handshake."""

    def on_established(self, conn: "Connection") -> None:
        """The connection is fully established; requests may be sent.

        (A real client sends data right after its handshake ACK; the
        simulation waits for the server-side socket object to exist so
        data packets can reference it.  This adds one server-processing
        plus wire delay to connection setup, identically for every
        system mode, and does not perturb any CPU accounting.)
        """

    def on_response(self, conn: "Connection", payload: Any, size_bytes: int) -> None:
        """A response segment arrived on an established connection."""

    def on_server_close(self, conn: "Connection") -> None:
        """The server closed the connection."""


@dataclass(eq=False)
class HalfOpen:
    """A SYN-queue entry: an embryonic connection awaiting its ACK.

    Compared by identity: two SYNs with equal fields are still two
    embryonic connections, and ``syn_queue.remove`` must take the one
    the ACK names.
    """

    client: ClientEndpoint
    src_addr: int
    src_port: int
    listen_socket: "ListenSocket"
    created_at: float
    dropped: bool = False


class ConnState(enum.Enum):
    """Lifecycle of an established connection (server perspective)."""

    ESTABLISHED = "established"
    SERVER_CLOSED = "server_closed"
    CLOSED = "closed"


class ListenSocket:
    """A listening socket, possibly with an address filter.

    Binding a listen socket to a resource container (section 4.6) causes
    all kernel consumption on behalf of connections demultiplexed to it
    -- including SYN processing that happens *before* the application
    ever sees the connection -- to be charged to that container.
    """

    def __init__(
        self,
        process: "Process",
        port: int,
        addr_filter: Optional[AddrFilter] = None,
        backlog: int = 1024,
    ) -> None:
        self.process = process
        self.port = port
        self.addr_filter = addr_filter
        self.backlog = backlog
        self.syn_queue: deque[HalfOpen] = deque()
        self.accept_queue: deque[Connection] = deque()
        self.waiters = WaitQueue(f"accept:{port}")
        #: Container charged for this socket's kernel work (None until
        #: the application binds one; the process default applies then).
        self.container: Optional["ResourceContainer"] = None
        #: Descriptor number in the owning process (for event delivery).
        self.primary_fd: Optional[int] = None
        #: Ask the kernel to post syn_dropped events (the modification
        #: of section 5.7: "notify the application when it drops a SYN").
        self.notify_syn_drop = False
        self.listening = False
        self.closed = False
        #: Descriptor-table entries referring to this socket (fork copies
        #: increment; the socket closes when the count reaches zero).
        self.fd_refs = 0
        self.stats_syns_received = 0
        self.stats_syns_dropped = 0
        self.stats_conns_established = 0

    @property
    def acceptable(self) -> bool:
        """True when accept() would not block."""
        return bool(self.accept_queue)

    def charge_target(self) -> "ResourceContainer":
        """The container this socket's kernel work is charged to."""
        return self.container or self.process.default_container

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        filt = str(self.addr_filter) if self.addr_filter else "*"
        return f"ListenSocket(port={self.port}, filter={filt})"


class Connection:
    """An established TCP connection (server side)."""

    def __init__(
        self,
        conn_id: int,
        client: ClientEndpoint,
        src_addr: int,
        src_port: int,
        listen_socket: ListenSocket,
    ) -> None:
        self.conn_id = conn_id
        self.client = client
        self.src_addr = src_addr
        self.src_port = src_port
        self.listen_socket = listen_socket
        self.process = listen_socket.process
        #: Inherited from the listen socket at establishment; the
        #: application may rebind it (ContainerBindSocket).
        self.container: Optional["ResourceContainer"] = listen_socket.container
        self.state = ConnState.ESTABLISHED
        self.rx_segments: deque[tuple[Any, int]] = deque()
        self.rx_bytes = 0
        self.rx_waiters = WaitQueue(f"conn:{self.conn_id}")
        self.eof = False
        self.primary_fd: Optional[int] = None
        #: Descriptor-table entries referring to this connection.  A
        #: parent server and a forked CGI child both hold the socket; it
        #: closes only when the last copy is closed (UNIX semantics).
        self.fd_refs = 0

    @property
    def readable(self) -> bool:
        """True when read() would not block (data or EOF pending)."""
        return bool(self.rx_segments) or self.eof

    def charge_target(self) -> "ResourceContainer":
        """The container this connection's kernel work is charged to."""
        return self.container or self.process.default_container

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Connection(id={self.conn_id}, state={self.state.value}, "
            f"rx={len(self.rx_segments)})"
        )


class TcpStack:
    """Protocol semantics plus client-side delivery scheduling."""

    def __init__(self, kernel: "Kernel", wire_delay_us: float = 100.0) -> None:
        from repro.net.qos import TransmitShaper

        self.kernel = kernel
        self.wire_delay_us = wire_delay_us
        self._conn_ids = kernel.sim.id_stream("conn")
        #: Optional egress-delay override: callable(client, size_bytes)
        #: -> one-way delay in microseconds.  The cluster fabric installs
        #: one so server->client segments pay per-link latency and
        #: serialization instead of the flat wire delay.
        self.egress_delay = None
        self.shaper = TransmitShaper()
        self.listeners: list[ListenSocket] = []
        #: Every bound (not necessarily listening) socket; bind()
        #: conflict checks consult this set.
        self.bound_sockets: list[ListenSocket] = []
        self.stats_packets_in = 0
        self.stats_stray = 0

    def register_bound(self, socket: ListenSocket) -> None:
        """Record a bound socket for address-conflict checking."""
        if socket not in self.bound_sockets:
            self.bound_sockets.append(socket)

    def binding_conflicts(self, socket: ListenSocket, port: int,
                          addr_filter) -> bool:
        """True if (port, filter) collides with another live socket."""
        for other in self.bound_sockets:
            if other is socket or other.closed:
                continue
            if other.port == port and other.addr_filter == addr_filter:
                return True
        return False

    # ------------------------------------------------------------------
    # Listener registry / demultiplexing
    # ------------------------------------------------------------------

    def register_listen(self, socket: ListenSocket) -> None:
        """Activate a listening socket."""
        socket.listening = True
        self.listeners.append(socket)

    def unregister_listen(self, socket: ListenSocket) -> None:
        """Remove a closed listening socket from demultiplexing."""
        socket.listening = False
        if socket in self.listeners:
            self.listeners.remove(socket)
        if socket in self.bound_sockets:
            self.bound_sockets.remove(socket)

    def demux_listener(self, port: int, src_addr: int) -> Optional[ListenSocket]:
        """Most-specific-filter listener for a SYN (section 4.8)."""
        return best_match(
            (s for s in self.listeners if s.port == port and not s.closed),
            src_addr)

    def demux_packet(
        self, packet: Packet
    ) -> tuple[Optional["Process"], Optional["ResourceContainer"], object]:
        """Early demultiplexing: destination process, container, endpoint.

        Used by the LRP and RC processing models inside the interrupt
        handler.  The endpoint (the matched connection or listen socket)
        lets the LRP model keep per-socket queues.  Returns
        (None, None, None) for traffic that matches nothing, which the
        models discard immediately ("early discard").
        """
        if packet.conn is not None:
            conn = packet.conn
            if conn.state is ConnState.CLOSED:
                return None, None, None
            return conn.process, conn.charge_target(), conn
        half_open = packet.payload if packet.kind is PacketKind.HANDSHAKE_ACK else None
        if isinstance(half_open, HalfOpen):
            socket = half_open.listen_socket
            return socket.process, socket.charge_target(), socket
        if packet.kind is PacketKind.SYN:
            socket = self.demux_listener(packet.dst_port, packet.src_addr)
            if socket is None:
                return None, None, None
            return socket.process, socket.charge_target(), socket
        return None, None, None

    # ------------------------------------------------------------------
    # Protocol input (semantic actions; cost already paid by caller)
    # ------------------------------------------------------------------

    def protocol_input(self, packet: Packet) -> None:
        """Process one inbound packet.  Runs in whatever context the
        active processing model chose; by this point its CPU cost has
        been charged."""
        self.stats_packets_in += 1
        trace = self.kernel.sim.trace
        if trace.active:
            trace.publish(
                self.kernel.sim.now,
                "net.proto",
                seq=packet.seq,
                kind=packet.kind.value,
            )
        if packet.kind is PacketKind.SYN:
            self._input_syn(packet)
        elif packet.kind is PacketKind.HANDSHAKE_ACK:
            self._input_handshake_ack(packet)
        elif packet.kind is PacketKind.DATA:
            self._input_data(packet)
        elif packet.kind is PacketKind.FIN:
            self._input_fin(packet)

    def _delivery_delay(self, client: ClientEndpoint, size_bytes: int) -> float:
        """One-way server->client delay for a segment of ``size_bytes``."""
        if self.egress_delay is not None:
            return self.egress_delay(client, size_bytes)
        return self.wire_delay_us

    def _input_syn(self, packet: Packet) -> None:
        socket = self.demux_listener(packet.dst_port, packet.src_addr)
        if socket is None:
            self.stats_stray += 1
            return
        socket.stats_syns_received += 1
        evicted_one = False
        if len(socket.syn_queue) >= socket.backlog:
            # BSD-style behaviour: evict the oldest embryonic connection
            # to make room.  A flood therefore mostly evicts its own
            # entries; the damage to legitimate clients at these rates is
            # CPU exhaustion, which Fig. 14 shows.
            evicted = socket.syn_queue.popleft()
            evicted.dropped = True
            evicted_one = True
            socket.stats_syns_dropped += 1
            self.kernel.note_syn_drop(socket, evicted.src_addr)
        half_open = HalfOpen(
            client=packet.payload,
            src_addr=packet.src_addr,
            src_port=packet.src_port,
            listen_socket=socket,
            created_at=self.kernel.sim.now,
        )
        socket.syn_queue.append(half_open)
        trace = self.kernel.sim.trace
        if trace.active:
            trace.publish(
                self.kernel.sim.now,
                "net.synq",
                port=packet.dst_port,
                depth=len(socket.syn_queue),
                dropped=evicted_one,
                container=socket.charge_target().name,
            )
        client = packet.payload
        if client is not None:
            self.kernel.sim.after(
                self._delivery_delay(client, 64),
                self._deliver_synack,
                client,
                half_open,
            )

    @staticmethod
    def _deliver_synack(client: ClientEndpoint, half_open: HalfOpen) -> None:
        if not half_open.dropped:
            client.on_synack(half_open)

    def _input_handshake_ack(self, packet: Packet) -> None:
        half_open = packet.payload
        if not isinstance(half_open, HalfOpen) or half_open.dropped:
            self.stats_stray += 1
            return
        socket = half_open.listen_socket
        if socket.closed:
            return
        try:
            socket.syn_queue.remove(half_open)
        except ValueError:
            return  # already evicted
        if len(socket.accept_queue) >= socket.backlog:
            socket.stats_syns_dropped += 1
            self.kernel.note_syn_drop(socket, half_open.src_addr)
            return
        conn = Connection(
            conn_id=next(self._conn_ids),
            client=half_open.client,
            src_addr=half_open.src_addr,
            src_port=half_open.src_port,
            listen_socket=socket,
        )
        if conn.container is not None:
            conn.container.ref_object_binding()
        socket.accept_queue.append(conn)
        socket.stats_conns_established += 1
        self.kernel.sim.after(
            self._delivery_delay(conn.client, 64),
            conn.client.on_established,
            conn,
        )
        self.kernel.socket_became_ready(socket)

    def _input_data(self, packet: Packet) -> None:
        conn = packet.conn
        if conn is None or conn.state is ConnState.CLOSED:
            self.stats_stray += 1
            return
        if not self.kernel.memory.try_charge(
            conn.charge_target(), packet.size_bytes, "socket_buffer"
        ):
            conn.charge_target().usage.packets_dropped += 1
            return
        conn.rx_segments.append((packet.payload, packet.size_bytes))
        conn.rx_bytes += packet.size_bytes
        target = conn.charge_target()
        target.usage.packets_received += 1
        self.kernel.conn_became_readable(conn)

    def _input_fin(self, packet: Packet) -> None:
        conn = packet.conn
        if conn is None or conn.state is ConnState.CLOSED:
            return
        conn.eof = True
        if conn.state is ConnState.SERVER_CLOSED:
            # Both sides done: release the connection entirely.
            self.release_connection(conn)
        else:
            self.kernel.conn_became_readable(conn)

    # ------------------------------------------------------------------
    # Server-side output and teardown
    # ------------------------------------------------------------------

    def transmit_response(
        self, conn: Connection, payload: Any, size_bytes: int
    ) -> None:
        """Deliver a response segment to the client after the wire delay,
        subject to the container's egress QoS shaping (if any)."""
        if conn.state is ConnState.CLOSED:
            return
        # The transmit consumes the bytes the moment the kernel commits
        # the segment, regardless of shaping delay: bill the principal
        # now so egress traffic is attributed like every other dimension.
        conn.charge_target().usage.charge_net_tx(size_bytes)
        trace = self.kernel.sim.trace
        if trace.active:
            trace.publish(
                self.kernel.sim.now,
                "net.tx",
                req=getattr(payload, "request_id", None),
                container=conn.charge_target().name,
                bytes=size_bytes,
            )
        delay = self.shaper.release_delay(
            conn.charge_target(), size_bytes, self.kernel.sim.now
        )
        self.kernel.sim.after(
            self._delivery_delay(conn.client, size_bytes) + delay,
            conn.client.on_response,
            conn,
            payload,
            size_bytes,
        )

    def server_close(self, conn: Connection) -> None:
        """The application closed the connection (idempotent)."""
        if conn.state is not ConnState.ESTABLISHED:
            return
        previous = conn.state
        conn.state = ConnState.SERVER_CLOSED
        self.kernel.sim.after(
            self._delivery_delay(conn.client, 64),
            conn.client.on_server_close,
            conn,
        )
        if conn.eof and previous is ConnState.ESTABLISHED:
            self.release_connection(conn)

    def release_connection(self, conn: Connection) -> None:
        """Final teardown: free buffers and drop the container binding."""
        if conn.state is ConnState.CLOSED:
            return
        conn.state = ConnState.CLOSED
        if conn.rx_bytes:
            self.kernel.memory.uncharge(
                conn.charge_target(), conn.rx_bytes, "socket_buffer"
            )
            conn.rx_bytes = 0
        conn.rx_segments.clear()
        if conn.container is not None:
            container = conn.container
            conn.container = None
            self.kernel.containers.drop_object_binding(container)
