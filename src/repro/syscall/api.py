"""Syscall objects yielded by application threads.

Each class is a small record naming the operation and its arguments.
Execution semantics live in :mod:`repro.kernel.syscalls`; the records
here stay pure data so application code has no way to reach kernel
internals (the protection boundary of the simulation).

The set mirrors what the paper's servers need: BSD sockets with the
filtered-``sockaddr`` extension (section 4.8), ``select()`` plus the
scalable event API of [5], ``fork()``, file reads through the buffer
cache, and the full resource-container operation set of section 4.6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.attributes import ContainerAttributes


class Syscall:
    """Base marker class for all syscall records."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# CPU and timing
# ---------------------------------------------------------------------------


@dataclass
class Compute(Syscall):
    """Consume ``us`` microseconds of user-mode CPU."""

    us: float


@dataclass
class Sleep(Syscall):
    """Block without consuming CPU for ``us`` microseconds."""

    us: float


@dataclass
class GetTime(Syscall):
    """Return the current simulated time in microseconds (free)."""


@dataclass
class Yield(Syscall):
    """Voluntarily end the time slice (free; lets peers run)."""


# ---------------------------------------------------------------------------
# Sockets and networking
# ---------------------------------------------------------------------------


@dataclass
class Socket(Syscall):
    """Create an unbound socket; returns its descriptor."""


@dataclass
class Bind(Syscall):
    """Bind a socket to (port, filter).

    ``addr_filter`` is the paper's new ``sockaddr`` namespace: a
    (template address, CIDR mask) restricting which clients this socket
    accepts.  Several sockets may share a port with different filters;
    the most specific match wins (section 4.8).  A socket binds once:
    binding it again raises ``InvalidArgumentError`` (EINVAL).
    """

    fd: int
    port: int
    addr_filter: Optional[Any] = None  # repro.net.filters.AddrFilter


@dataclass
class Listen(Syscall):
    """Mark a bound socket as listening, with the given SYN/accept backlog.

    ``notify_syn_drop=True`` enables the section-5.7 kernel modification:
    the application receives a ``syn_dropped`` event (via the scalable
    event API) whenever the kernel drops a SYN due to queue overflow.
    """

    fd: int
    backlog: int = 1024
    notify_syn_drop: bool = False


@dataclass
class Accept(Syscall):
    """Take one established connection; returns the new descriptor.

    Blocks while the accept queue is empty unless ``blocking=False``,
    in which case :class:`~repro.kernel.errors.WouldBlockError` is raised.
    """

    fd: int
    blocking: bool = True


@dataclass
class Read(Syscall):
    """Read up to ``max_bytes`` from a connection; returns a Message or
    None at end-of-stream.  Blocks if no data unless ``blocking=False``."""

    fd: int
    max_bytes: int = 65536
    blocking: bool = True


@dataclass
class Write(Syscall):
    """Send ``payload`` on a connection; returns bytes written."""

    fd: int
    payload: Any
    size_bytes: int = 1024


@dataclass
class Close(Syscall):
    """Close any descriptor (socket, container, file, event queue)."""

    fd: int


@dataclass
class GetPeerName(Syscall):
    """Return the peer (source) address of an established connection.

    Servers without the filtered-sockaddr mechanism use this to classify
    clients *after* accept -- all they can do on an unmodified kernel.
    """

    fd: int


@dataclass
class Select(Syscall):
    """Wait until any of ``fds`` is ready; returns the ready subset.

    Cost is ``select_base + select_per_fd * len(fds)`` on entry and again
    on the return path -- the linear bitmap scan the paper identifies as
    inherent to the API's semantics (section 5.5).
    """

    fds: Sequence[int]
    timeout_us: Optional[float] = None


# ---------------------------------------------------------------------------
# Scalable event API (reference [5])
# ---------------------------------------------------------------------------


@dataclass
class EventQueueCreate(Syscall):
    """Create the process's event queue; returns its descriptor."""


@dataclass
class EventDeclare(Syscall):
    """Declare interest in readiness events for descriptor ``fd``."""

    evq_fd: int
    fd: int


@dataclass
class EventGet(Syscall):
    """Dequeue the next pending event; blocks while none are pending.

    Events are delivered in resource-container priority order (highest
    first), which is how the kernel lets the application see premium
    work first without scanning every descriptor.
    Returns an ``Event(kind, fd, data)`` record.
    """

    evq_fd: int
    timeout_us: Optional[float] = None


# ---------------------------------------------------------------------------
# Pipes (IPC)
# ---------------------------------------------------------------------------


@dataclass
class PipeCreate(Syscall):
    """Create a message pipe; returns its descriptor.

    Pipes are how a master process hands work to pre-forked workers and
    how a server feeds persistent (FastCGI-style) back-end processes;
    they are shared across ``fork()`` like any descriptor.
    """

    name: str = "pipe"
    capacity: int = 1024


@dataclass
class PipeWrite(Syscall):
    """Append a message to a pipe; returns True, or False if full."""

    fd: int
    message: Any


@dataclass
class PipeRead(Syscall):
    """Take the next message from a pipe; blocks while empty."""

    fd: int
    blocking: bool = True


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


@dataclass
class ReadFile(Syscall):
    """Read a whole file through the buffer cache; returns its size.

    The I/O cost is charged to the calling thread's resource binding
    (use :class:`OpenFile` + :class:`FdReadFile` with a container-bound
    descriptor to charge a different principal)."""

    path: str


@dataclass
class OpenFile(Syscall):
    """Open a file; returns a FILE descriptor.

    The descriptor can be bound to a resource container
    (:class:`ContainerBindSocket` accepts file descriptors too), after
    which reads through it are charged to that container -- completing
    the section 4.6 operation the paper's prototype left socket-only.
    """

    path: str


@dataclass
class FdReadFile(Syscall):
    """Read a whole file through an open descriptor; returns its size.

    If the descriptor is bound to a container, the kernel switches the
    thread's resource binding to it for the duration of the I/O, so the
    filesystem work is charged to the file's principal.
    """

    fd: int


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class Fork(Syscall):
    """Create a child process running ``child_main``.

    ``child_main`` is a callable taking no arguments and returning a
    thread body generator.  The child inherits a copy of the parent's
    descriptor table (containers included, per section 4.6).  By default
    the child's first thread is bound to a freshly created default
    container; with ``inherit_binding=True`` it is bound to the calling
    thread's *current* resource binding instead -- the traditional-CGI
    container-inheritance path of section 4.8.

    ``pass_fds`` limits which descriptors the child inherits (a CGI
    child needs only its connection, and inheriting the server's whole
    table would pin every open connection for the child's lifetime);
    None inherits everything, classic fork() style.

    Returns the child process id.
    """

    child_main: Callable[[], Any]
    name: str = "child"
    inherit_binding: bool = False
    pass_fds: Optional[Sequence[int]] = None


@dataclass
class SpawnThread(Syscall):
    """Create another thread in the calling process.

    ``body_factory`` is a callable returning a fresh thread-body
    generator.  The new thread inherits the caller's resource binding
    (paper section 4.2: "A thread starts with a default resource
    container binding (inherited from its creator)").  Returns the tid.
    """

    body_factory: Callable[[], Any]
    name: str = "thread"


@dataclass
class Exit(Syscall):
    """Terminate the calling thread immediately."""


# ---------------------------------------------------------------------------
# Resource-container operations (paper section 4.6)
# ---------------------------------------------------------------------------


@dataclass
class ContainerCreate(Syscall):
    """Create a resource container; returns its descriptor.

    ``parent_fd`` of None parents the container under the system root.
    """

    name: str = "container"
    attrs: Optional[ContainerAttributes] = None
    parent_fd: Optional[int] = None


@dataclass
class ContainerSetParent(Syscall):
    """Change a container's parent (None detaches it)."""

    fd: int
    parent_fd: Optional[int]


@dataclass
class ContainerSetAttrs(Syscall):
    """Replace a container's attribute record."""

    fd: int
    attrs: ContainerAttributes


@dataclass
class ContainerGetAttrs(Syscall):
    """Read a container's attribute record."""

    fd: int


@dataclass
class ContainerGetUsage(Syscall):
    """Read a container's (subtree) resource usage."""

    fd: int
    recursive: bool = True


@dataclass
class ContainerBindThread(Syscall):
    """Set the calling thread's resource binding to this container."""

    fd: int


@dataclass
class ContainerGetBinding(Syscall):
    """Return a descriptor for the calling thread's current binding."""


@dataclass
class ContainerResetSchedBinding(Syscall):
    """Reset the calling thread's scheduler binding to its current
    resource binding only (section 4.3)."""


@dataclass
class ContainerBindSocket(Syscall):
    """Bind a socket descriptor to a container: subsequent kernel
    consumption on behalf of the socket is charged there (section 4.6)."""

    sock_fd: int
    container_fd: int


@dataclass
class ContainerSendTo(Syscall):
    """Pass a container to another process (descriptor transfer).

    The sender retains access, "analogous to the transfer of descriptors
    between UNIX processes".  Returns the descriptor number the container
    received in the target process.
    """

    fd: int
    target_pid: int


@dataclass
class ContainerGrant(Syscall):
    """Grant another process rights over a container (ACL extension).

    ``rights`` is a :class:`repro.core.security.Right` flag set.  Only a
    holder of ADMIN (e.g. the owner) may grant.
    """

    fd: int
    target_pid: int
    rights: Any


@dataclass
class SendDescriptor(Syscall):
    """Pass any descriptor (socket, container, pipe) to another process,
    SCM_RIGHTS-style.  The sender retains its copy; the call returns the
    descriptor number allocated in the target process."""

    fd: int
    target_pid: int


@dataclass
class ContainerGetHandle(Syscall):
    """Obtain a descriptor for an existing container identified by cid
    (Table 1's "obtain handle for existing container")."""

    cid: int


# ---------------------------------------------------------------------------
# Event record delivered by EventGet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IOEvent:
    """One event delivered by the scalable event API.

    Kinds: ``"acceptable"`` (listen socket has connections),
    ``"readable"`` (connection has data or EOF), ``"syn_dropped"``
    (the kernel dropped a SYN due to queue overflow -- the notification
    added for the SYN-flood defence, section 5.7).
    """

    kind: str
    fd: int
    data: Any = None
    priority: int = 0
