"""The front-end L4/L7 load balancer application.

The balancer is an :class:`~repro.apps.httpserver.EventDrivenServer`
subclass running on the cluster's front-end host.  External clients
connect to it exactly as they would to a single-host server -- per-class
listen specs, filtered sockaddr demux, per-class containers, the
SYN-flood-absorbing stray-drop path, all inherited.  What changes is
the serve path: instead of reading a file, the balancer

1. classifies the request's tenant (its listen spec's class),
2. consults the tenant's :class:`~repro.cluster.principal
   .GlobalContainer` -- a throttled tenant's request is shed on the
   spot (the client's timeout/retry models the shed load),
3. asks its routing policy for a backend and forwards the request over
   the fabric on a fresh per-request backend connection (SYN /
   handshake / DATA, a real connection on the backend kernel, charged
   to the tenant's backend class container via the backend's filtered
   listen specs),
4. splices the backend's response back onto the client connection in
   interrupt context, charged to the tenant's front-end class
   container.

Per-request channels (rather than persistent multiplexed trunks) keep
the backend side faithful: each forwarded request is a separate
connection a thread-per-connection backend can spread across its
worker pool.

Routing policies are pluggable per balancer: :class:`RoundRobinPolicy`
(classic L4), :class:`LeastLoadedPolicy` (in-flight counting), and
:class:`UsageWeightedPolicy`, which reads the tenant's member-container
window usage on each backend -- the C-Balancer observation that a
balancer routes best when it can see per-tenant resource usage, made
trivial here because resource containers already meter it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.apps.httpserver.common import ConnInfo, ListenSpec
from repro.apps.httpserver.event_driven import EventDrivenServer
from repro.apps.webclient import HttpRequest
from repro.kernel.cpu import InterruptJob
from repro.kernel.descriptors import DescriptorKind
from repro.kernel.errors import WouldBlockError
from repro.net.packet import PacketKind, alloc_packet, ip_addr
from repro.net.tcp import ConnState
from repro.syscall import api

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.host import Cluster
    from repro.cluster.principal import GlobalContainer
    from repro.net.tcp import Connection, HalfOpen

#: CPU cost of the kernel splice that forwards a backend response
#: segment onto the client connection (one buffer handoff, no copy to
#: user space -- cheaper than a full syscall write path).
DEFAULT_SPLICE_COST_US = 8.0

#: CPU cost the balancer's application thread pays per forwarded
#: request (header rewrite + backend pick).
DEFAULT_FORWARD_COST_US = 12.0


# ---------------------------------------------------------------------------
# Routing policies
# ---------------------------------------------------------------------------


class RoutingPolicy:
    """Pick a backend host name for one request."""

    name = "abstract"

    def choose(
        self, balancer: "LoadBalancer", tenant: str, backends: list
    ) -> str:
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Per-tenant rotation, blind to load (the L4 baseline)."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next: dict[str, int] = {}

    def choose(
        self, balancer: "LoadBalancer", tenant: str, backends: list
    ) -> str:
        index = self._next.get(tenant, 0)
        self._next[tenant] = index + 1
        return backends[index % len(backends)]


class LeastLoadedPolicy(RoutingPolicy):
    """Fewest balancer-tracked in-flight requests; ties to list order."""

    name = "least-loaded"

    def choose(
        self, balancer: "LoadBalancer", tenant: str, backends: list
    ) -> str:
        best = backends[0]
        best_load = balancer.inflight.get(best, 0)
        for candidate in backends[1:]:
            load = balancer.inflight.get(candidate, 0)
            if load < best_load:
                best = candidate
                best_load = load
        return best


class UsageWeightedPolicy(RoutingPolicy):
    """Least member-container window usage for this tenant.

    Reads each backend's per-tenant class container
    (``<server>:class:<tenant>``) ``window_usage_us`` -- the eagerly
    maintained current-window CPU accumulator -- so routing follows the
    same metering the scheduler and the global principal use.  Ties go
    to in-flight count, then list order.
    """

    name = "usage-weighted"

    def __init__(self, backend_server_name: str = "httpd") -> None:
        self.backend_server_name = backend_server_name

    def choose(
        self, balancer: "LoadBalancer", tenant: str, backends: list
    ) -> str:
        container_name = f"{self.backend_server_name}:class:{tenant}"
        kernels = balancer.cluster.fabric.kernels
        best = backends[0]
        best_key = self._key(balancer, kernels, best, container_name)
        for candidate in backends[1:]:
            key = self._key(balancer, kernels, candidate, container_name)
            if key < best_key:
                best = candidate
                best_key = key
        return best

    @staticmethod
    def _key(balancer, kernels, backend: str, container_name: str) -> tuple:
        member = kernels[backend].containers.find_by_name(container_name)
        usage_us = member.window_usage_us if member is not None else 0.0
        return (usage_us, balancer.inflight.get(backend, 0))


# ---------------------------------------------------------------------------
# Backend channels
# ---------------------------------------------------------------------------


class BackendChannel:
    """One forwarded request's connection to one backend.

    Acts as the *client endpoint* of a real connection on the backend
    kernel: the backend's stack calls the ``on_*`` callbacks below and,
    because the channel carries a ``fabric_host`` marker, routes its
    egress segments through the fabric instead of the flat wire delay.
    """

    __slots__ = (
        "balancer",
        "backend",
        "tenant",
        "client_fd",
        "request",
        "fabric_host",
        "src_addr",
        "src_port",
        "forward_request",
        "conn",
        "done",
    )

    def __init__(
        self,
        balancer: "LoadBalancer",
        backend: str,
        tenant: str,
        client_fd: int,
        request: HttpRequest,
    ) -> None:
        self.balancer = balancer
        self.backend = backend
        self.tenant = tenant
        self.client_fd = client_fd
        self.request = request
        #: Fabric marker: backend egress to this endpoint pays the
        #: backend->frontend link delay.
        self.fabric_host = balancer.cluster_host_name
        self.src_addr = balancer.channel_addr(tenant)
        self.src_port = balancer.next_channel_port()
        self.forward_request: Optional[HttpRequest] = None
        self.conn: Optional["Connection"] = None
        self.done = False

    def start(self) -> None:
        packet = alloc_packet(
            next(self.balancer._packet_seqs),
            PacketKind.SYN,
            self.src_addr,
            src_port=self.src_port,
            dst_port=self.balancer.backend_port,
            payload=self,
        )
        self._send(packet)

    def _send(self, packet) -> None:
        self.balancer.cluster.fabric.send(
            self.fabric_host, self.backend, packet
        )

    # -- ClientEndpoint callbacks (invoked by the backend's stack) -----

    def on_synack(self, half_open: "HalfOpen") -> None:
        if self.done:
            return
        packet = alloc_packet(
            next(self.balancer._packet_seqs),
            PacketKind.HANDSHAKE_ACK,
            self.src_addr,
            src_port=half_open.src_port,
            dst_port=self.balancer.backend_port,
            payload=half_open,
        )
        self._send(packet)

    def on_established(self, conn: "Connection") -> None:
        if self.done:
            return
        self.conn = conn
        # Fresh request id: the backend's response must never be
        # mistaken for a response to the client's own request object.
        self.forward_request = HttpRequest(
            request_id=next(self.balancer._request_ids),
            path=self.request.path,
            client_name=f"lb:{self.tenant}",
            persistent=False,
            issued_at=self.balancer.kernel.sim.now,
        )
        packet = alloc_packet(
            next(self.balancer._packet_seqs),
            PacketKind.DATA,
            self.src_addr,
            dst_port=self.balancer.backend_port,
            conn=conn,
            payload=self.forward_request,
            size_bytes=256,
        )
        self._send(packet)

    def on_response(self, conn: "Connection", payload, size_bytes: int) -> None:
        forward = self.forward_request
        if self.done or forward is None:
            return
        if getattr(payload, "request_id", None) != forward.request_id:
            return
        self.done = True
        fin = alloc_packet(
            next(self.balancer._packet_seqs),
            PacketKind.FIN,
            self.src_addr,
            dst_port=self.balancer.backend_port,
            conn=conn,
        )
        self._send(fin)
        self.conn = None
        self.balancer._on_backend_response(self, size_bytes)

    def on_server_close(self, conn: "Connection") -> None:
        if self.conn is conn:
            self.conn = None


# ---------------------------------------------------------------------------
# The balancer itself
# ---------------------------------------------------------------------------


class LoadBalancer(EventDrivenServer):
    """Front-end request router with global-principal admission control."""

    def __init__(
        self,
        cluster: "Cluster",
        frontend: str,
        backends: list,
        specs: Optional[list] = None,
        policy: Optional[RoutingPolicy] = None,
        principals: Optional[dict] = None,
        use_containers: bool = False,
        event_api: str = "select",
        port: int = 80,
        backend_port: int = 80,
        splice_cost_us: float = DEFAULT_SPLICE_COST_US,
        forward_cost_us: float = DEFAULT_FORWARD_COST_US,
        name: str = "lb",
    ) -> None:
        super().__init__(
            cluster.kernel(frontend),
            port=port,
            specs=specs,
            use_containers=use_containers,
            event_api=event_api,
            name=name,
        )
        if not backends:
            raise ValueError("a balancer needs at least one backend")
        self.cluster = cluster
        self.cluster_host_name = frontend
        self.backends = list(backends)
        self.policy = policy if policy is not None else RoundRobinPolicy()
        #: Tenant (spec name) -> GlobalContainer consulted at admission.
        self.principals: dict = dict(principals or {})
        self.backend_port = backend_port
        self.splice_cost_us = splice_cost_us
        self.forward_cost_us = forward_cost_us
        #: Balancer-tracked in-flight forwards per backend.
        self.inflight: dict[str, int] = {}
        #: Channel source addresses per tenant, assigned on first use:
        #: each tenant's forwards come from their own /16 so backends
        #: can classify them with filtered listen specs.
        self._channel_addrs: dict[str, int] = {}
        self._channel_port_next = 20_000
        self._packet_seqs = self.kernel.sim.id_stream("packet")
        self._request_ids = self.kernel.sim.id_stream("request")
        self.stats_forwarded = 0
        self.stats_rejected = 0
        self.stats_spliced = 0
        self.stats_splice_drops = 0
        self.forwarded_by_tenant: dict[str, int] = {}
        self.rejected_by_tenant: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Channel address/port allocation
    # ------------------------------------------------------------------

    def channel_addr(self, tenant: str) -> int:
        """This tenant's forwarding source address (10.<200+i>.0.1)."""
        addr = self._channel_addrs.get(tenant)
        if addr is None:
            addr = ip_addr(10, 200 + len(self._channel_addrs), 0, 1)
            self._channel_addrs[tenant] = addr
        return addr

    def next_channel_port(self) -> int:
        port = self._channel_port_next
        self._channel_port_next += 1
        return port

    @staticmethod
    def tenant_filter_prefix(index: int) -> tuple:
        """(template, prefix_len) matching tenant ``index``'s channels.

        Backends hand this to an :class:`~repro.net.filters.AddrFilter`
        so each tenant's forwarded connections land on that tenant's
        listen spec (and therefore its class container).
        """
        return (ip_addr(10, 200 + index, 0, 0), 16)

    # ------------------------------------------------------------------
    # Serve path (overrides the static-file serving of the base class)
    # ------------------------------------------------------------------

    def _serve_ready(self, fd: int, info: ConnInfo):
        try:
            message = yield api.Read(fd, blocking=False)
        except WouldBlockError:
            return
        if message is None:  # EOF: peer closed
            yield from self._close_conn(fd)
            self.stats.read_eofs += 1
            return
        if not isinstance(message, HttpRequest):
            yield from self._close_conn(fd)
            return
        tenant = info.spec.name
        yield api.Compute(self.kernel.costs.app_request_parse)
        principal: Optional["GlobalContainer"] = self.principals.get(tenant)
        if principal is not None and principal.throttled:
            # Cluster-wide cap exceeded: shed at admission.  The client
            # sees no response and retries after its timeout -- the
            # cluster analogue of a dropped SYN.
            self.stats_rejected += 1
            self.rejected_by_tenant[tenant] = (
                self.rejected_by_tenant.get(tenant, 0) + 1
            )
            yield from self._close_conn(fd)
            return
        yield api.Compute(self.forward_cost_us)
        self._forward(fd, info, message, tenant)

    def _forward(
        self, fd: int, info: ConnInfo, message: HttpRequest, tenant: str
    ) -> None:
        backend = self.policy.choose(self, tenant, self.backends)
        self.inflight[backend] = self.inflight.get(backend, 0) + 1
        self.stats_forwarded += 1
        self.forwarded_by_tenant[tenant] = (
            self.forwarded_by_tenant.get(tenant, 0) + 1
        )
        trace = self.kernel.sim.trace
        if trace.active:
            trace.publish(
                self.kernel.sim.now,
                "lb.forward",
                req=message.request_id,
                tenant=tenant,
                backend=backend,
                policy=self.policy.name,
            )
        BackendChannel(self, backend, tenant, fd, message).start()

    # ------------------------------------------------------------------
    # Response splice-back
    # ------------------------------------------------------------------

    def _on_backend_response(
        self, channel: BackendChannel, size_bytes: int
    ) -> None:
        count = self.inflight.get(channel.backend, 0)
        if count > 0:
            self.inflight[channel.backend] = count - 1
        conn = self._client_conn(channel.client_fd)
        charge = None
        if self.use_containers and conn is not None:
            charge = conn.charge_target()
        job = InterruptJob(
            cost_us=self.splice_cost_us,
            action=lambda: self._do_splice(channel, size_bytes),
            charge=charge,
            note="lb-splice",
        )
        self.kernel.cpu.post_hard_interrupt(job)

    def _do_splice(self, channel: BackendChannel, size_bytes: int) -> None:
        conn = self._client_conn(channel.client_fd)
        if conn is None or conn.state is not ConnState.ESTABLISHED:
            # The client gave up (timeout / FIN) while the backend
            # worked; nothing to splice onto.
            self.stats_splice_drops += 1
            return
        # The *original* request rides back so the client's request-id
        # match accepts the response; non-persistent clients then FIN,
        # which the event loop reaps as an EOF.
        self.kernel.stack.transmit_response(conn, channel.request, size_bytes)
        self.stats_spliced += 1
        self.stats.count_static(self.kernel.sim.now)
        trace = self.kernel.sim.trace
        if trace.active:
            trace.publish(
                self.kernel.sim.now,
                "lb.splice",
                req=channel.request.request_id,
                tenant=channel.tenant,
                backend=channel.backend,
                bytes=size_bytes,
            )

    def _client_conn(self, fd: int) -> Optional["Connection"]:
        """The client connection behind ``fd``, if it is still open.

        The splice runs in kernel context on behalf of the balancer
        process, so it resolves the descriptor the same way the syscall
        layer would -- without charging a full syscall's worth of work
        (that is the point of splicing).
        """
        process = self.process
        if process is None or not process.alive or fd not in process.fds:
            return None
        entry = process.fds.lookup(fd)
        if entry.kind is not DescriptorKind.SOCKET:
            return None
        return entry.obj


def tenant_specs(
    tenants: list, priorities: Optional[dict] = None,
    weights: Optional[dict] = None,
) -> list:
    """Balancer-side listen specs for external client classes.

    Tenant ``i``'s clients are expected from ``10.<1+i>.0.0/16`` (the
    experiment harness places them there); everything else -- a SYN
    flood included -- matches no listener and is absorbed at stray-drop
    cost.
    """
    from repro.net.filters import AddrFilter

    specs = []
    for index, tenant in enumerate(tenants):
        specs.append(
            ListenSpec(
                tenant,
                addr_filter=AddrFilter(
                    template=ip_addr(10, 1 + index, 0, 0), prefix_len=16
                ),
                priority=(priorities or {}).get(tenant, 4),
                weight=(weights or {}).get(tenant, 1.0),
            )
        )
    return specs


def backend_specs(
    tenants: list, priorities: Optional[dict] = None,
    weights: Optional[dict] = None,
) -> list:
    """Backend-side listen specs classifying the balancer's channels."""
    from repro.net.filters import AddrFilter

    specs = []
    for index, tenant in enumerate(tenants):
        template, prefix_len = LoadBalancer.tenant_filter_prefix(index)
        specs.append(
            ListenSpec(
                tenant,
                addr_filter=AddrFilter(
                    template=template, prefix_len=prefix_len
                ),
                priority=(priorities or {}).get(tenant, 4),
                weight=(weights or {}).get(tenant, 1.0),
            )
        )
    return specs
