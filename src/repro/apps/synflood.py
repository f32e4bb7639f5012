"""SYN-flood attacker (paper section 5.7).

A set of "malicious clients" sends bogus SYN packets to the server's
HTTP port at a configurable aggregate rate and never completes the
handshakes.  Source addresses are drawn from a configurable subnet so
the server can (after noticing) install a matching filter.

At the paper's top rate (70,000 SYNs/sec) simulating every packet as an
individual interrupt is needlessly slow, so the flooder supports
*interrupt coalescing*: ``batch`` SYNs arrive back-to-back and are
handled under one hardware-interrupt job whose cost is the exact sum of
the per-packet costs.  Real NICs coalesce interrupts the same way; the
total CPU charged is identical.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.kernel import Kernel
from repro.net.packet import PacketKind, alloc_packet, ip_addr
from repro.sim.rng import SeededRng

#: Default attacker subnet: 66.6.6.0/24.
DEFAULT_SUBNET = ip_addr(66, 6, 6, 0)


class SynFlooder:
    """Open-loop bogus-SYN generator."""

    def __init__(
        self,
        kernel: Kernel,
        rate_per_sec: float,
        subnet: int = DEFAULT_SUBNET,
        subnet_bits: int = 24,
        server_port: int = 80,
        batch: int = 1,
        rng: Optional[SeededRng] = None,
    ) -> None:
        if rate_per_sec < 0:
            raise ValueError(f"negative flood rate: {rate_per_sec}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.kernel = kernel
        self.sim = kernel.sim
        self._packet_seqs = kernel.sim.id_stream("packet")
        self.rate_per_sec = rate_per_sec
        self.subnet = subnet
        self.subnet_bits = subnet_bits
        self.server_port = server_port
        self.batch = batch
        self.rng = rng
        self.running = False
        self.stats_sent = 0

    def start(self, at_us: float = 0.0) -> None:
        """Begin flooding at the given simulated time."""
        if self.rate_per_sec <= 0:
            return
        self.running = True
        self.sim.at(max(at_us, self.sim.now), self._tick)

    def stop(self) -> None:
        """Stop generating SYNs."""
        self.running = False

    def _source_address(self) -> int:
        host_bits = 32 - self.subnet_bits
        if self.rng is not None:
            host = self.rng.randint(1, (1 << host_bits) - 2)
        else:
            host = 1 + (self.stats_sent % ((1 << host_bits) - 2))
        return self.subnet | host

    def _tick(self) -> None:
        if not self.running:
            return
        packets = [
            alloc_packet(
                next(self._packet_seqs),
                PacketKind.SYN,
                self._source_address(),
                src_port=20_000 + (self.stats_sent + i) % 40_000,
                dst_port=self.server_port,
                payload=None,  # never completes the handshake
            )
            for i in range(self.batch)
        ]
        self.stats_sent += len(packets)
        self.kernel.net_input_batch(packets)
        interval = self.batch * 1_000_000.0 / self.rate_per_sec
        self.sim.after(interval, self._tick)
