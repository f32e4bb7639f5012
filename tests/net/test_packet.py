"""Packets and addresses."""

import pytest

from repro.net.packet import (
    Packet,
    PacketKind,
    alloc_packet,
    format_ip,
    free_packet,
    ip_addr,
)
from repro.sim.engine import Simulation


def test_ip_addr_roundtrip():
    addr = ip_addr(192, 168, 1, 200)
    assert format_ip(addr) == "192.168.1.200"


def test_ip_addr_bounds():
    with pytest.raises(ValueError):
        ip_addr(256, 0, 0, 1)
    with pytest.raises(ValueError):
        ip_addr(0, 0, 0, -1)


def test_ip_addr_structure():
    assert ip_addr(1, 2, 3, 4) == (1 << 24) | (2 << 16) | (3 << 8) | 4


def test_packet_sequence_increases():
    # Senders number packets from their simulation's stream: increasing
    # within one simulation, and starting at 1 in every new one (the
    # second pass also recycles the first pass's pooled packets).
    for _ in range(2):
        seqs = Simulation().id_stream("packet")
        a = alloc_packet(next(seqs), PacketKind.SYN, 1)
        b = alloc_packet(next(seqs), PacketKind.SYN, 1)
        assert (a.seq, b.seq) == (1, 2)
        free_packet(a)
        free_packet(b)


def test_packet_defaults():
    packet = Packet(seq=1, kind=PacketKind.DATA, src_addr=ip_addr(10, 0, 0, 1))
    assert packet.dst_port == 80
    assert packet.conn is None
