"""CGI back-end handling (paper sections 2, 4.8, 5.6).

Requests for dynamic resources are handed to separate processes.  Two
mechanisms, matching the paper:

* **Traditional CGI** -- fork a fresh process per request.  With
  containers enabled, the server first creates a per-request container
  (a child of the restricted "CGI-parent" container), binds the
  connection and its own thread to it, and forks with
  ``inherit_binding=True`` so the child's thread is bound to the same
  container ("this may be done by inheritance, for traditional CGI
  using a child process").
* **Persistent CGI (FastCGI-style)** -- long-lived worker processes fed
  through a pipe; the server passes the request's container explicitly
  with ``ContainerSendTo`` ("or explicitly, when persistent CGI server
  processes are used") and the worker rebinds its thread before doing
  the work.

Each CGI request consumes about 2 seconds of CPU, the workload of
Figs. 12 and 13.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.apps.httpserver.common import ConnInfo
from repro.apps.webclient import HttpRequest
from repro.core.attributes import fixed_share_attrs, timeshare_attrs
from repro.syscall import api

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apps.httpserver.event_driven import EventDrivenServer

#: The paper's CGI requests each consume about 2 seconds of CPU.
DEFAULT_CGI_CPU_US = 2_000_000.0


class CgiPolicy:
    """How a server dispatches and sandboxes CGI requests.

    Args:
        prefix: request paths beginning with this are CGI.
        cpu_us: CPU each CGI request consumes.
        cpu_limit: if set (and the server uses containers), a
            "CGI-parent" container restricted to this fraction of the
            CPU is created at setup, and every per-request container is
            its child -- the resource sand-box of Fig. 12/13 ("RC System
            1" = 0.30, "RC System 2" = 0.10).
        persistent_workers: 0 for traditional fork-per-request CGI;
            otherwise the number of long-lived FastCGI-style workers.
        in_process: run the dynamic handler inside the server process
            (the ISAPI/NSAPI-style library interface of section 2,
            usable "if fault isolation is not required").  Accounting
            still works -- the server "simply binds its thread to the
            appropriate container" (section 4.8) -- but an event-driven
            server stalls for the handler's whole CPU burst, which is
            precisely why real deployments use processes.
    """

    def __init__(
        self,
        prefix: str = "/cgi/",
        cpu_us: float = DEFAULT_CGI_CPU_US,
        cpu_limit: Optional[float] = None,
        persistent_workers: int = 0,
        in_process: bool = False,
        response_bytes: int = 1024,
    ) -> None:
        if persistent_workers and in_process:
            raise ValueError("in_process excludes persistent workers")
        self.prefix = prefix
        self.cpu_us = cpu_us
        self.cpu_limit = cpu_limit
        self.persistent_workers = persistent_workers
        self.in_process = in_process
        self.response_bytes = response_bytes
        self.parent_cfd: Optional[int] = None
        #: (worker_pid, pipe_fd) pairs; dispatch is round-robin.
        self._workers: list[tuple[int, int]] = []
        self._next_worker = 0
        #: Request-container and child-process numbering; bound to the
        #: simulation's ``id_stream("cgi")`` by :meth:`setup`.
        self._ids = None
        self.stats_dispatched = 0

    def matches(self, path: str) -> bool:
        """True if the path names a dynamic (CGI) resource."""
        return path.startswith(self.prefix)

    # ------------------------------------------------------------------
    # Setup (runs inside the server's main generator)
    # ------------------------------------------------------------------

    def setup(self, server: "EventDrivenServer"):
        """Create the CGI-parent sandbox and any persistent workers."""
        self._ids = server.kernel.sim.id_stream("cgi")
        if server.use_containers and self.cpu_limit is not None:
            self.parent_cfd = yield api.ContainerCreate(
                f"{server.name}:cgi-parent",
                attrs=fixed_share_attrs(self.cpu_limit, cpu_limit=self.cpu_limit),
                parent_fd=server._parent_cfd,
            )
        elif server.use_containers and server._parent_cfd is not None:
            # Even without a CPU limit, nest per-request containers
            # under the guest's hierarchy rather than the system root.
            self.parent_cfd = server._parent_cfd
        if self.persistent_workers > 0:
            for index in range(self.persistent_workers):
                pipe_fd = yield api.PipeCreate(name=f"fastcgi-{index}")
                pid = yield api.Fork(
                    self._make_persistent_worker(server, pipe_fd),
                    name=f"fastcgi-{index}",
                    pass_fds=[pipe_fd],
                )
                self._workers.append((pid, pipe_fd))

    # ------------------------------------------------------------------
    # Dispatch (runs inside the server's main generator)
    # ------------------------------------------------------------------

    def handle(self, server: "EventDrivenServer", fd: int, info: ConnInfo,
               message: HttpRequest):
        """Hand one CGI request to a back-end process."""
        self.stats_dispatched += 1
        server.stats.cgi_forked += 1
        if self.in_process:
            yield from self._dispatch_in_process(server, fd, info, message)
        elif self.persistent_workers > 0:
            yield from self._dispatch_persistent(server, fd, info, message)
        else:
            yield from self._dispatch_fork(server, fd, info, message)

    def _dispatch_in_process(self, server: "EventDrivenServer", fd: int,
                             info: ConnInfo, message: HttpRequest):
        """Library-module handler: the server thread does the work."""
        request_cfd: Optional[int] = None
        if server.use_containers:
            request_cfd = yield api.ContainerCreate(
                f"{server.name}:cgi-req-{next(self._ids)}",
                attrs=timeshare_attrs(),
                parent_fd=self.parent_cfd,
            )
            yield api.ContainerBindSocket(fd, request_cfd)
            yield api.ContainerBindThread(request_cfd)
        yield api.Compute(self.cpu_us)
        yield api.Write(fd, payload=message, size_bytes=self.response_bytes)
        server.stats.cgi_completed += 1
        if server.use_containers:
            yield api.ContainerBindThread(server._default_cfd)
            yield api.Close(request_cfd)
        yield from server._close_conn(fd)

    def _dispatch_fork(self, server: "EventDrivenServer", fd: int,
                       info: ConnInfo, message: HttpRequest):
        request_cfd: Optional[int] = None
        if server.use_containers:
            request_cfd = yield api.ContainerCreate(
                f"{server.name}:cgi-req-{next(self._ids)}",
                attrs=timeshare_attrs(),
                parent_fd=self.parent_cfd,
            )
            yield api.ContainerBindSocket(fd, request_cfd)
            # Bind our own thread so the forked child inherits the
            # request's container as its binding (section 4.8).
            yield api.ContainerBindThread(request_cfd)
        yield api.Fork(
            self._make_cgi_child(server, fd, message),
            name=f"cgi-{next(self._ids)}",
            inherit_binding=server.use_containers,
            pass_fds=[fd],
        )
        if server.use_containers:
            yield api.ContainerBindThread(server._default_cfd)
            yield api.Close(request_cfd)
        # The child owns the connection now; drop our copy and stop
        # watching the descriptor.
        del server._conns[fd]
        yield api.Close(fd)

    def _make_cgi_child(self, server: "EventDrivenServer", fd: int,
                        message: HttpRequest):
        cpu_us = self.cpu_us
        response_bytes = self.response_bytes

        def child_main():
            def body():
                yield api.Compute(cpu_us)
                yield api.Write(fd, payload=message, size_bytes=response_bytes)
                server.stats.cgi_completed += 1
                yield api.Close(fd)

            return body()

        return child_main

    # ------------------------------------------------------------------
    # Persistent (FastCGI-style) path
    # ------------------------------------------------------------------

    def _dispatch_persistent(self, server: "EventDrivenServer", fd: int,
                             info: ConnInfo, message: HttpRequest):
        worker_pid, worker_pipe = self._workers[self._next_worker]
        self._next_worker = (self._next_worker + 1) % len(self._workers)
        request_cfd: Optional[int] = None
        remote_cfd: Optional[int] = None
        if server.use_containers:
            request_cfd = yield api.ContainerCreate(
                f"{server.name}:cgi-req-{next(self._ids)}",
                attrs=timeshare_attrs(),
                parent_fd=self.parent_cfd,
            )
            yield api.ContainerBindSocket(fd, request_cfd)
            # Explicit container passing to the persistent worker
            # (section 4.8: "or explicitly, when persistent CGI server
            # processes are used").
            remote_cfd = yield api.ContainerSendTo(request_cfd, worker_pid)
        remote_fd = yield api.SendDescriptor(fd, worker_pid)
        ok = yield api.PipeWrite(
            worker_pipe,
            _WorkItem(conn_fd=remote_fd, message=message,
                      container_fd=remote_cfd),
        )
        if request_cfd is not None:
            yield api.Close(request_cfd)
        del server._conns[fd]
        yield api.Close(fd)
        if not ok:  # work queue full; the worker never saw the item
            # Nothing more we can do: our copies are closed and the
            # client will time out.  Real servers would 503 here.
            return

    def _make_persistent_worker(self, server: "EventDrivenServer", pipe_fd: int):
        cpu_us = self.cpu_us
        response_bytes = self.response_bytes
        use_containers = server.use_containers

        def worker_main():
            def body():
                default_cfd = None
                if use_containers:
                    default_cfd = yield api.ContainerGetBinding()
                while True:
                    item = yield api.PipeRead(pipe_fd)
                    if item is None:
                        return  # pipe closed: shut down
                    if item.container_fd is not None:
                        yield api.ContainerBindThread(item.container_fd)
                    yield api.Compute(cpu_us)
                    yield api.Write(
                        item.conn_fd, payload=item.message,
                        size_bytes=response_bytes,
                    )
                    server.stats.cgi_completed += 1
                    yield api.Close(item.conn_fd)
                    if item.container_fd is not None:
                        yield api.ContainerBindThread(default_cfd)
                        yield api.Close(item.container_fd)

            return body()

        return worker_main


class _WorkItem:
    """One FastCGI work unit passed through a worker's pipe.

    Descriptor numbers are in the *worker's* table (the server passed
    them across with SendDescriptor / ContainerSendTo before queueing).
    """

    def __init__(self, conn_fd: int, message: HttpRequest,
                 container_fd: Optional[int]) -> None:
        self.conn_fd = conn_fd
        self.message = message
        self.container_fd = container_fd
