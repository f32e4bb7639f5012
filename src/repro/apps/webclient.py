"""HTTP client load generators.

Closed-loop clients modelled on the paper's S-Client methodology [4]:
each client keeps exactly one request outstanding, reissues as soon as
the previous one completes (plus an optional think time), and -- like a
real TCP stack -- times out and retries when the server drops its
packets.  Enough closed-loop clients saturate the server; the retry
behaviour is what lets Fig. 14's unmodified system collapse to zero
*useful* throughput instead of deadlocking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.kernel.kernel import Kernel
from repro.net.packet import PacketKind, alloc_packet
from repro.net.tcp import Connection, HalfOpen
from repro.sim.rng import SeededRng


@dataclass
class HttpRequest:
    """One HTTP request as carried in a DATA packet's payload.

    ``persistent`` tells the server whether the client intends to reuse
    the connection (HTTP/1.1 keep-alive) or expects a close after the
    response (HTTP/1.0).  ``request_id`` comes from the simulation's
    ``id_stream("request")``.
    """

    request_id: int
    path: str
    client_name: str
    persistent: bool = False
    issued_at: float = 0.0


class HttpClient:
    """A closed-loop HTTP client machine.

    Args:
        kernel: the simulated server host.
        src_addr: this client's 32-bit IPv4 address.
        path: document requested each iteration.
        persistent: reuse one connection for all requests (HTTP/1.1
            persistent connections) instead of one connection per
            request (the paper evaluates both, section 5.3).
        think_time_us: idle time between completing one request and
            issuing the next.
        client_delay_us: client-side processing delay per protocol step.
        timeout_us: per-request timeout before the client abandons the
            attempt and retries with a fresh connection.
        on_complete: optional hook ``(client, request, latency_us)``.
    """

    def __init__(
        self,
        kernel: Kernel,
        src_addr: int,
        name: str,
        path: str = "/index.html",
        server_port: int = 80,
        persistent: bool = False,
        think_time_us: float = 0.0,
        client_delay_us: float = 50.0,
        wire_delay_us: float = 100.0,
        timeout_us: float = 1_000_000.0,
        rng: Optional[SeededRng] = None,
        on_complete: Optional[Callable[["HttpClient", HttpRequest, float], None]] = None,
    ) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.src_addr = src_addr
        self.name = name
        self.path = path
        self.server_port = server_port
        self.persistent = persistent
        self.think_time_us = think_time_us
        self.client_delay_us = client_delay_us
        self.wire_delay_us = wire_delay_us
        self.timeout_us = timeout_us
        self.rng = rng
        self.on_complete = on_complete
        self.running = False
        self.conn: Optional[Connection] = None
        self.current: Optional[HttpRequest] = None
        self._attempt_started = 0.0
        self._timeout_event = None
        self._src_port = itertools.count(10_000)
        self._packet_seqs = self.sim.id_stream("packet")
        self._request_ids = self.sim.id_stream("request")
        self.stats_completed = 0
        self.stats_retries = 0
        self.latencies_us: list[float] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, at_us: float = 0.0) -> None:
        """Begin the closed loop at the given simulated time."""
        self.running = True
        self.sim.at(max(at_us, self.sim.now), self._begin_request)

    def stop(self) -> None:
        """Stop after the in-flight request (if any) completes."""
        self.running = False
        self._cancel_timeout()

    # ------------------------------------------------------------------
    # Request issue
    # ------------------------------------------------------------------

    def _begin_request(self) -> None:
        if not self.running:
            return
        self.current = HttpRequest(
            request_id=next(self._request_ids),
            path=self.path,
            client_name=self.name,
            persistent=self.persistent,
            issued_at=self.sim.now,
        )
        self._attempt_started = self.sim.now
        self._arm_timeout()
        if self.persistent and self.conn is not None:
            self._send_data()
        else:
            self._send_syn()

    def _send_syn(self) -> None:
        self.conn = None
        packet = alloc_packet(
            next(self._packet_seqs),
            PacketKind.SYN,
            self.src_addr,
            src_port=next(self._src_port),
            dst_port=self.server_port,
            payload=self,
        )
        self.sim.after(self.wire_delay_us, self.kernel.net_input, packet)

    def _send_data(self) -> None:
        if self.conn is None or self.current is None:
            return
        packet = alloc_packet(
            next(self._packet_seqs),
            PacketKind.DATA,
            self.src_addr,
            dst_port=self.server_port,
            conn=self.conn,
            payload=self.current,
            size_bytes=256,
        )
        self.sim.after(self.wire_delay_us, self.kernel.net_input, packet)

    # ------------------------------------------------------------------
    # ClientEndpoint callbacks (invoked by the server-side stack)
    # ------------------------------------------------------------------

    def on_synack(self, half_open: HalfOpen) -> None:
        if self.current is None:
            return
        packet = alloc_packet(
            next(self._packet_seqs),
            PacketKind.HANDSHAKE_ACK,
            self.src_addr,
            src_port=half_open.src_port,
            dst_port=self.server_port,
            payload=half_open,
        )
        self.sim.after(
            self.client_delay_us + self.wire_delay_us, self.kernel.net_input, packet
        )

    def on_established(self, conn: Connection) -> None:
        if self.current is None:
            return
        self.conn = conn
        self.sim.after(self.client_delay_us, self._send_data)

    def on_response(self, conn: Connection, payload: object, size_bytes: int) -> None:
        request = self.current
        if request is None:
            return
        # Duck-typed so protocol subclasses (e.g. the mail submitter)
        # can carry their own payload types with a request_id.
        if getattr(payload, "request_id", None) != request.request_id:
            return  # stale response from an abandoned attempt
        self._cancel_timeout()
        latency = self.sim.now - request.issued_at
        self.latencies_us.append(latency)
        self.stats_completed += 1
        if self.sim.trace.active:
            self.sim.trace.publish(
                self.sim.now,
                "client.complete",
                req=request.request_id,
                client=self.name,
                latency_us=latency,
            )
        if self.on_complete is not None:
            self.on_complete(self, request, latency)
        self.current = None
        if not self.persistent:
            # HTTP/1.0 teardown: the client's FIN costs the server one
            # more protocol action.
            fin = alloc_packet(
                next(self._packet_seqs),
                PacketKind.FIN,
                self.src_addr,
                dst_port=self.server_port,
                conn=conn,
            )
            self.sim.after(
                self.client_delay_us + self.wire_delay_us,
                self.kernel.net_input,
                fin,
            )
            self.conn = None
        if self.running:
            delay = self.think_time_us
            if self.rng is not None and delay > 0:
                delay = self.rng.uniform(0.5 * delay, 1.5 * delay)
            self.sim.after(max(delay, 1.0), self._begin_request)

    def on_server_close(self, conn: Connection) -> None:
        if self.conn is conn:
            self.conn = None
        # If a response is still pending the timeout path will retry.

    # ------------------------------------------------------------------
    # Timeouts / retries
    # ------------------------------------------------------------------

    def _arm_timeout(self) -> None:
        self._cancel_timeout()
        if self.timeout_us is not None:
            self._timeout_event = self.sim.after(
                self.timeout_us, self._on_timeout
            )

    def _cancel_timeout(self) -> None:
        if self._timeout_event is not None:
            self.sim.cancel(self._timeout_event)
            self._timeout_event = None

    def _on_timeout(self) -> None:
        self._timeout_event = None
        if self.current is None or not self.running:
            return
        self.stats_retries += 1
        if self.conn is not None:
            # Abandon the connection cleanly so the server can reap it.
            fin = alloc_packet(
                next(self._packet_seqs),
                PacketKind.FIN,
                self.src_addr,
                dst_port=self.server_port,
                conn=self.conn,
            )
            self.sim.after(self.wire_delay_us, self.kernel.net_input, fin)
            self.conn = None
        # Retry the same logical request on a fresh connection, with a
        # fresh id so stale responses are ignored.
        self.current = HttpRequest(
            request_id=next(self._request_ids),
            path=self.path,
            client_name=self.name,
            persistent=self.persistent,
            issued_at=self.current.issued_at,
        )
        self._arm_timeout()
        self._send_syn()

    def mean_latency_ms(self) -> float:
        """Mean observed response time in milliseconds."""
        if not self.latencies_us:
            return 0.0
        return sum(self.latencies_us) / len(self.latencies_us) / 1000.0
