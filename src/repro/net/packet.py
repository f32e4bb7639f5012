"""Packets and addresses.

Addresses are 32-bit integers (IPv4).  A packet carries just enough for
the experiments: a kind (which determines its protocol-processing cost),
source address/port, destination port, an optional established-connection
reference, and a payload.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.tcp import Connection


def ip_addr(a: int, b: int, c: int, d: int) -> int:
    """Build a 32-bit address from dotted-quad components."""
    for octet in (a, b, c, d):
        if not 0 <= octet <= 255:
            raise ValueError(f"bad address octet: {octet}")
    return (a << 24) | (b << 16) | (c << 8) | d


def format_ip(addr: int) -> str:
    """Dotted-quad string for a 32-bit address."""
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class PacketKind(enum.Enum):
    """Inbound packet types the server-side stack processes.

    (Outbound SYN|ACK and response segments are modelled as direct
    deliveries to the client after a wire delay; their transmit cost is
    charged in syscall/protocol context on the server.)
    """

    SYN = "syn"
    #: Handshake-completing ACK; carries the client's connection object.
    HANDSHAKE_ACK = "handshake_ack"
    #: Data segment on an established connection (an HTTP request).
    DATA = "data"
    FIN = "fin"


@dataclass(slots=True)
class Packet:
    """One inbound packet.

    ``seq`` is the packet's id, drawn by its sender from the simulation's
    ``id_stream("packet")``; trace records use it to follow one packet
    from arrival to protocol completion.

    High-rate senders allocate through :func:`alloc_packet`, which
    recycles objects from a free list; the kernel's input path returns
    them with :func:`free_packet` once protocol processing (or an early
    drop) is done with them.  Directly-constructed packets are never
    pooled -- ``free_packet`` ignores them -- so tests may hold handles
    safely.
    """

    seq: int
    kind: PacketKind
    src_addr: int
    src_port: int = 0
    dst_port: int = 80
    conn: Optional["Connection"] = None
    payload: Any = None
    size_bytes: int = 64
    #: True only between alloc_packet() and free_packet().
    _poolable: bool = field(default=False, repr=False, compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind.value}, src={format_ip(self.src_addr)}, "
            f"dst_port={self.dst_port}, seq={self.seq})"
        )


#: Free list shared by every simulated host in the process (packets are
#: plain value records; sharing cannot leak state because alloc resets
#: every field, including the sequence number).
_packet_pool: list[Packet] = []


def alloc_packet(
    seq: int,
    kind: PacketKind,
    src_addr: int,
    src_port: int = 0,
    dst_port: int = 80,
    conn: Optional["Connection"] = None,
    payload: Any = None,
    size_bytes: int = 64,
) -> Packet:
    """Build packet ``seq``, recycling a freed one when available.

    Pooled and direct allocation produce identical packets, so the pool
    is invisible to every observable stream.
    """
    pool = _packet_pool
    if pool:
        packet = pool.pop()
        packet.kind = kind
        packet.src_addr = src_addr
        packet.src_port = src_port
        packet.dst_port = dst_port
        packet.conn = conn
        packet.payload = payload
        packet.size_bytes = size_bytes
        packet.seq = seq
        packet._poolable = True
        return packet
    packet = Packet(
        seq,
        kind,
        src_addr,
        src_port=src_port,
        dst_port=dst_port,
        conn=conn,
        payload=payload,
        size_bytes=size_bytes,
    )
    packet._poolable = True
    return packet


def free_packet(packet: Packet) -> None:
    """Return a pooled packet to the free list.

    No-op for directly-constructed packets, and for double frees (the
    flag flips on free, so the second call sees an unpoolable object).
    """
    if not packet._poolable:
        return
    packet._poolable = False
    packet.conn = None
    packet.payload = None
    _packet_pool.append(packet)
