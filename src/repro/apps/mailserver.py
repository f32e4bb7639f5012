"""An SMTP-style store-and-forward mail server.

Section 2's opening: "we focus on HTTP servers and proxy servers, but
most of the issues also apply to other servers, such as mail, file, and
directory servers."  This application demonstrates exactly that: a mail
server with accept/spool/deliver stages, where resource containers give
per-sender-class accounting and priority across *both* the in-kernel
protocol work and the user-level spooling/delivery work.

Architecture (single process):

* an acceptor loop takes connections and reads message submissions;
* submissions are parsed, spooled (simulated disk write), and queued;
* a pool of delivery threads drains the queue, paying a per-message
  delivery cost (remote SMTP chatter simulated as compute + sleep);
* with containers enabled, each sender class (filtered listen sockets,
  e.g. premium vs. bulk) gets a container, and both spooling and
  delivery rebind to the message's class before doing its work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.apps.httpserver.common import ListenSpec
from repro.core.attributes import timeshare_attrs
from repro.kernel.errors import KernelError, WouldBlockError
from repro.syscall import api

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process

#: Simulated user-level costs (us).  Parsing an envelope is cheap;
#: spooling scales with size; remote delivery is dominated by waiting.
PARSE_COST = 20.0
SPOOL_COST_PER_KB = 8.0
DELIVERY_CPU = 50.0
DELIVERY_RTT_US = 2_000.0


@dataclass
class MailMessage:
    """One submission, carried as a DATA packet payload."""

    sender: str
    recipient: str
    size_bytes: int = 4 * 1024


@dataclass
class MailStats:
    """Counters for tests and experiments."""

    accepted: int = 0
    spooled: int = 0
    delivered: int = 0
    rejected: int = 0


class MailServer:
    """Store-and-forward mail server over the simulated syscall API."""

    def __init__(
        self,
        kernel: "Kernel",
        port: int = 25,
        specs: Optional[list[ListenSpec]] = None,
        use_containers: bool = False,
        delivery_threads: int = 2,
        queue_capacity: int = 512,
        name: str = "maild",
    ) -> None:
        if delivery_threads < 1:
            raise ValueError("need at least one delivery thread")
        self.kernel = kernel
        self.port = port
        self.specs = specs if specs is not None else [ListenSpec("default")]
        self.use_containers = use_containers
        self.delivery_threads = delivery_threads
        self.queue_capacity = queue_capacity
        self.name = name
        self.stats = MailStats()
        self.process: Optional["Process"] = None
        self._listen: dict[int, ListenSpec] = {}
        self._listen_cfd: dict[int, Optional[int]] = {}
        self._queue_fd: Optional[int] = None
        self._default_cfd: Optional[int] = None

    def install(self) -> "Process":
        """Start the server process."""
        self.process = self.kernel.spawn_process(self.name, self.main)
        return self.process

    # ------------------------------------------------------------------
    # Application code
    # ------------------------------------------------------------------

    def main(self):
        if self.use_containers:
            self._default_cfd = yield api.ContainerGetBinding()
        self._queue_fd = yield api.PipeCreate(
            name="spool", capacity=self.queue_capacity
        )
        for spec in self.specs:
            fd = yield api.Socket()
            yield api.Bind(fd, self.port, spec.addr_filter)
            yield api.Listen(fd, backlog=spec.backlog)
            cfd = None
            if self.use_containers:
                cfd = yield api.ContainerCreate(
                    f"{self.name}:class:{spec.name}",
                    attrs=timeshare_attrs(priority=spec.priority),
                )
                yield api.ContainerBindSocket(fd, cfd)
            self._listen[fd] = spec
            self._listen_cfd[fd] = cfd
        for index in range(self.delivery_threads):
            yield api.SpawnThread(self._delivery_worker, name=f"deliver-{index}")
        yield from self._acceptor_loop()

    def _acceptor_loop(self):
        """select() over the listen sockets; serve one submission per
        connection (SMTP-session-lite)."""
        conns: dict[int, Optional[int]] = {}
        while True:
            fds = list(self._listen) + list(conns)
            ready = yield api.Select(fds)
            for fd in ready:
                if fd in self._listen:
                    while True:
                        try:
                            new_fd = yield api.Accept(fd, blocking=False)
                        except WouldBlockError:
                            break
                        conns[new_fd] = self._listen_cfd[fd]
                        self.stats.accepted += 1
                elif fd in conns:
                    yield from self._handle_submission(fd, conns[fd])
                    del conns[fd]

    def _handle_submission(self, fd: int, class_cfd: Optional[int]):
        if self.use_containers and class_cfd is not None:
            yield api.ContainerBindThread(class_cfd)
        try:
            message = yield api.Read(fd, blocking=False)
        except (WouldBlockError, KernelError):
            message = None
        if isinstance(message, MailMessage):
            yield api.Compute(PARSE_COST)
            yield api.Compute(SPOOL_COST_PER_KB * message.size_bytes / 1024.0)
            queued = yield api.PipeWrite(
                self._queue_fd, (message, class_cfd)
            )
            if queued:
                self.stats.spooled += 1
                # 250 OK
                yield api.Write(fd, payload=message, size_bytes=64)
            else:
                self.stats.rejected += 1  # 452 queue full
        yield api.Close(fd)
        if self.use_containers and self._default_cfd is not None:
            yield api.ContainerBindThread(self._default_cfd)

    def _delivery_worker(self):
        """Drain the spool: each message costs CPU plus remote RTTs."""
        while True:
            item = yield api.PipeRead(self._queue_fd)
            if item is None:
                return  # pipe closed: shut down
            message, class_cfd = item
            if self.use_containers and class_cfd is not None:
                yield api.ContainerBindThread(class_cfd)
            yield api.Compute(DELIVERY_CPU)
            yield api.Sleep(DELIVERY_RTT_US)
            yield api.Compute(DELIVERY_CPU)
            self.stats.delivered += 1
            if self.use_containers and self._default_cfd is not None:
                yield api.ContainerBindThread(self._default_cfd)


class MailClient:
    """Closed-loop mail submitter (one message per connection)."""

    def __init__(
        self,
        kernel: "Kernel",
        src_addr: int,
        name: str,
        sender: str = "user@example.com",
        recipient: str = "peer@example.org",
        size_bytes: int = 4 * 1024,
        server_port: int = 25,
        think_time_us: float = 0.0,
        timeout_us: float = 1_000_000.0,
    ) -> None:
        from repro.apps.webclient import HttpClient

        self.stats_submitted = 0
        self._message_template = (sender, recipient, size_bytes)

        def on_complete(_client, _request, _latency):
            self.stats_submitted += 1

        # Reuse the HTTP client's connection machinery with a mail
        # payload factory: subclassing keeps the TCP/timeout behaviour.
        outer = self

        class _Submitter(HttpClient):
            def _begin_request(inner) -> None:  # noqa: N805
                super()._begin_request()
                if inner.current is not None:
                    sender_, recipient_, size_ = outer._message_template
                    mail = MailMessage(
                        sender=sender_, recipient=recipient_, size_bytes=size_
                    )
                    # Ride the base class's request-id matching and
                    # latency bookkeeping.
                    mail.request_id = inner.current.request_id
                    mail.persistent = False
                    mail.issued_at = inner.current.issued_at
                    inner.current = mail

        self.client = _Submitter(
            kernel,
            src_addr,
            name,
            server_port=server_port,
            think_time_us=think_time_us,
            timeout_us=timeout_us,
            on_complete=on_complete,
        )

    def start(self, at_us: float = 0.0) -> None:
        """Begin submitting."""
        self.client.start(at_us=at_us)

    def stop(self) -> None:
        """Stop submitting."""
        self.client.stop()
