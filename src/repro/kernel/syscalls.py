"""Syscall execution.

The :class:`SyscallExecutor` drives application thread generators.  Each
yielded syscall record goes through up to three steps:

1. **entry** -- the syscall's entry CPU cost is charged to the thread's
   resource binding by running it as scheduled CPU work;
2. **execute** -- the semantic action; it either produces a result,
   raises a kernel error (delivered into the generator), or blocks the
   thread on one or more wait queues;
3. **resume** -- after a wakeup, an optional return-path CPU cost (for
   example select()'s second descriptor scan) followed by a re-check of
   the condition, which may produce the result or block again.

Results are delivered by advancing the generator, which immediately
yields the next syscall; the thread's progress is therefore entirely
driven by the scheduler giving it CPU.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Optional

from repro.core.attributes import ContainerAttributes
from repro.core.container import ResourceContainer
from repro.core.security import DEFAULT_TRANSFER_RIGHTS, Right, acl_of, check_access
from repro.fs.handles import OpenFileHandle
from repro.kernel.descriptors import DescriptorKind
from repro.kernel.errors import (
    AddressInUseError,
    BadDescriptorError,
    ContainerPolicyError,
    InvalidArgumentError,
    KernelError,
    WouldBlockError,
)
from repro.kernel.events import ProcessEventQueue
from repro.kernel.process import ExecPhase, Thread, ThreadState
from repro.net.tcp import Connection, ListenSocket
from repro.syscall import api
from repro.syscall.api import IOEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: Sentinel outcome meaning "the thread is now parked on wait queues".
_BLOCKED = object()
#: Sentinel outcome meaning "the thread called Exit".
_EXIT = object()


class SyscallExecutor:
    """Executes syscall records on behalf of threads."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel

    # ------------------------------------------------------------------
    # Generator driving
    # ------------------------------------------------------------------

    def start_thread(self, thread: Thread) -> None:
        """Prime a new thread's generator (fetch its first syscall)."""
        thread.started = True
        self._advance(thread, None, None)

    def _advance(
        self,
        thread: Thread,
        value: Any,
        error: Optional[BaseException],
    ) -> None:
        """Deliver a syscall result (or error) and stage the next op."""
        try:
            if error is not None:
                op = thread.body.throw(error)
            else:
                op = thread.body.send(value)
        except StopIteration:
            self.kernel.thread_exit(thread)
            return
        if not isinstance(op, api.Syscall):
            self.kernel.thread_exit(
                thread,
                error=TypeError(f"thread {thread.name!r} yielded {op!r}"),
            )
            return
        try:
            self._stage_charge_override(thread, op)
            cost = self.entry_cost(op, thread)
        except KernelError as err:
            self._restore_charge_override(thread)
            self._advance(thread, None, err)
            return
        thread.pending_op = op
        thread.phase = ExecPhase.ENTRY
        thread.phase_remaining_us = cost
        thread.state = ThreadState.READY
        self.kernel.scheduler.on_wakeup(thread, self.kernel.sim.now)
        self.kernel.cpu.notify_ready(thread)

    def finish_phase(self, thread: Thread) -> None:
        """The thread consumed its current phase's CPU; act on it."""
        op = thread.pending_op
        if op is None:  # pragma: no cover - defensive
            return
        try:
            if thread.phase is ExecPhase.ENTRY:
                outcome = self.execute(op, thread)
            else:
                outcome = self.resume(op, thread)
        except KernelError as err:
            thread.pending_op = None
            self._restore_charge_override(thread)
            self._advance(thread, None, err)
            return
        if outcome is _BLOCKED:
            thread.park()
            return
        if outcome is _EXIT:
            self._restore_charge_override(thread)
            self.kernel.thread_exit(thread)
            return
        thread.pending_op = None
        self._restore_charge_override(thread)
        self._advance(thread, outcome, None)

    def wake(self, thread: Thread, tag: Any) -> None:
        """Wake a blocked thread; stage the resume phase."""
        if thread.state is not ThreadState.BLOCKED:
            return
        thread.wake_tag = tag
        thread.clear_waits()
        self._cancel_timer(thread)
        op = thread.pending_op
        thread.phase = ExecPhase.RESUME
        thread.phase_remaining_us = self.resume_cost(op, thread) if op else 0.0
        thread.state = ThreadState.READY
        self.kernel.scheduler.on_wakeup(thread, self.kernel.sim.now)
        self.kernel.cpu.notify_ready(thread)

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------

    def entry_cost(self, op: api.Syscall, thread: Thread) -> float:
        """Entry-path CPU cost of a syscall, in microseconds."""
        cost = _ENTRY_COSTS.get(type(op))
        if cost is None:
            raise InvalidArgumentError(f"unknown syscall: {op!r}")
        return cost(self, op, thread)

    def _compute_cost(self, op: api.Compute, thread: Thread) -> float:
        if op.us < 0:
            raise ValueError(f"Compute cost must be >= 0, got {op.us}")
        return op.us

    def _write_cost(self, op: api.Write, thread: Thread) -> float:
        costs = self.kernel.costs
        segments = max(1, -(-op.size_bytes // 1448))
        return costs.syscall_write_base + costs.proto_tx_segment * segments

    def _close_cost(self, op: api.Close, thread: Thread) -> float:
        # Closing a container descriptor is the Table 1 "destroy resource
        # container" primitive; other kinds pay the plain close cost.
        if thread.process.fds.lookup(op.fd).kind is DescriptorKind.CONTAINER:
            return self.kernel.costs.container_ops.destroy
        return self.kernel.costs.syscall_close

    def _select_cost(self, op: api.Select, thread: Thread) -> float:
        costs = self.kernel.costs
        return costs.syscall_select_base + costs.syscall_select_per_fd * len(op.fds)

    def _fd_read_file_cost(self, op: api.FdReadFile, thread: Thread) -> float:
        entry = thread.process.fds.lookup_kind(op.fd, DescriptorKind.FILE)
        return self.kernel.fs.read_cpu_cost(entry.obj.path)

    def resume_cost(self, op: api.Syscall, thread: Thread) -> float:
        """Return-path CPU cost paid after a wakeup."""
        if isinstance(op, api.Select):
            # The kernel re-scans the whole descriptor set on return --
            # the linear overhead inherent to select()'s semantics that
            # the paper blames for Fig. 11's residual slope.
            return self._select_cost(op, thread)
        return 0.0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, op: api.Syscall, thread: Thread) -> Any:
        """Entry-phase semantics.  Returns result, _BLOCKED, or _EXIT."""
        handler = _EXECUTE.get(type(op))
        if handler is None:
            return self._execute_container_op(op, thread)
        return handler(self, op, thread)

    def _do_sleep(self, op: api.Sleep, thread: Thread) -> Any:
        if op.us < 0:
            raise InvalidArgumentError(f"negative sleep: {op.us}")
        self._arm_timer(thread, op.us)
        return _BLOCKED

    def _do_open_file(self, op: api.OpenFile, thread: Thread) -> int:
        self.kernel.fs.size_of(op.path)  # validates existence (ENOENT)
        handle = OpenFileHandle(op.path)
        entry = thread.process.fds.allocate(DescriptorKind.FILE, handle)
        handle.fd_refs = 1
        return entry.fd

    def _do_fd_read_file(self, op: api.FdReadFile, thread: Thread) -> Any:
        entry = thread.process.fds.lookup_kind(op.fd, DescriptorKind.FILE)
        entry.obj.reads += 1
        return self._do_file_read(entry.obj.path, thread)

    def _do_fork(self, op: api.Fork, thread: Thread) -> int:
        child = self.kernel.fork_process(
            thread, op.child_main, op.name, op.inherit_binding, pass_fds=op.pass_fds
        )
        return child.pid

    def _do_spawn_thread(self, op: api.SpawnThread, thread: Thread) -> int:
        new_thread = self.kernel.spawn_thread(
            thread.process,
            op.body_factory(),
            f"{thread.process.name}:{op.name}",
            binding=thread.resource_binding,
        )
        return new_thread.tid

    def _do_file_read(self, path: str, thread: Thread) -> Any:
        """Shared ReadFile/FdReadFile body: cache lookup, disk on miss.

        On a hit the read completes synchronously.  On a miss the
        thread's current resource binding (which a container-bound file
        descriptor has already overridden, section 4.7) becomes the disk
        request's charging container, and the thread parks on the
        request's wait queue until the device completes it and the
        kernel has faulted the block into the buffer cache.
        """
        kernel = self.kernel
        size = kernel.fs.size_of(path)
        owner = thread.resource_binding
        hit = kernel.fs.cache.lookup(path)
        trace = kernel.sim.trace
        if trace.active:
            trace.publish(
                kernel.sim.now,
                "fs.cache",
                path=path,
                hit=hit,
                bytes=size,
                container=owner.name if owner is not None else None,
            )
        if hit:
            return size
        request = kernel.disk.submit(
            path, size, owner, on_complete=kernel.disk_read_complete
        )
        request.waiters.add(thread)
        return _BLOCKED

    def resume(self, op: api.Syscall, thread: Thread) -> Any:
        """Post-wakeup semantics: re-check conditions."""
        handler = _RESUME.get(type(op))
        if handler is None:
            raise InvalidArgumentError(
                f"syscall {type(op).__name__} does not support blocking"
            )
        return handler(self, op, thread)

    # ------------------------------------------------------------------
    # Charge overrides (container-bound file descriptors)
    # ------------------------------------------------------------------

    def _stage_charge_override(self, thread: Thread, op: api.Syscall) -> None:
        """Switch the thread's resource binding for ops whose kernel
        work is charged to a bound descriptor's container (FdReadFile
        through a container-bound file) -- the per-operation rebinding
        discipline of section 4.7, applied to file I/O."""
        if not isinstance(op, api.FdReadFile):
            return
        entry = thread.process.fds.lookup_kind(op.fd, DescriptorKind.FILE)
        container = entry.obj.container
        if container is None or not container.alive:
            return
        if not container.is_leaf:
            return
        thread.binding_restore = thread.resource_binding
        self.kernel.containers.bindings.bind_thread(
            thread, container, self.kernel.sim.now
        )

    def _restore_charge_override(self, thread: Thread) -> None:
        """Undo a charge override after the op completes."""
        restore = thread.binding_restore
        if restore is None:
            return
        thread.binding_restore = None
        if restore.alive:
            self.kernel.containers.bindings.bind_thread(
                thread, restore, self.kernel.sim.now
            )

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _arm_timer(self, thread: Thread, delay_us: float) -> None:
        thread.wait_timer = self.kernel.sim.after(
            delay_us, self.wake, thread, "timeout"
        )

    def _cancel_timer(self, thread: Thread) -> None:
        timer = getattr(thread, "wait_timer", None)
        if timer is not None:
            self.kernel.sim.cancel(timer)
            thread.wait_timer = None

    # ------------------------------------------------------------------
    # Sockets
    # ------------------------------------------------------------------

    def _do_socket(self, op: api.Socket, thread: Thread) -> int:
        socket = ListenSocket(thread.process, port=0)
        entry = thread.process.fds.allocate(DescriptorKind.LISTEN_SOCKET, socket)
        socket.primary_fd = entry.fd
        socket.fd_refs = 1
        return entry.fd

    def _do_bind(self, op: api.Bind, thread: Thread) -> None:
        entry = thread.process.fds.lookup_kind(op.fd, DescriptorKind.LISTEN_SOCKET)
        socket: ListenSocket = entry.obj
        if op.port <= 0:
            raise InvalidArgumentError(f"bad port: {op.port}")
        if socket.port > 0:
            # POSIX: a socket binds once.  Rebinding would also move a
            # listener's port and filter under the demultiplexer.
            raise InvalidArgumentError(
                f"socket already bound to port {socket.port}"
            )
        if self.kernel.stack.binding_conflicts(socket, op.port, op.addr_filter):
            raise AddressInUseError(
                f"port {op.port} with filter {op.addr_filter} already bound"
            )
        socket.port = op.port
        socket.addr_filter = op.addr_filter
        self.kernel.stack.register_bound(socket)
        return None

    def _do_listen(self, op: api.Listen, thread: Thread) -> None:
        entry = thread.process.fds.lookup_kind(op.fd, DescriptorKind.LISTEN_SOCKET)
        socket: ListenSocket = entry.obj
        if socket.port <= 0:
            raise InvalidArgumentError("listen() before bind()")
        if op.backlog <= 0:
            raise InvalidArgumentError(f"bad backlog: {op.backlog}")
        socket.backlog = op.backlog
        socket.notify_syn_drop = op.notify_syn_drop
        if not socket.listening:
            self.kernel.stack.register_listen(socket)
        return None

    def _do_accept(self, op: api.Accept, thread: Thread, resumed: bool = False) -> Any:
        entry = thread.process.fds.lookup_kind(op.fd, DescriptorKind.LISTEN_SOCKET)
        socket: ListenSocket = entry.obj
        if socket.accept_queue:
            conn = socket.accept_queue.popleft()
            conn_entry = thread.process.fds.allocate(DescriptorKind.SOCKET, conn)
            conn.primary_fd = conn_entry.fd
            conn.fd_refs = 1
            conn.charge_target().usage.connections_accepted += 1
            return conn_entry.fd
        if not op.blocking:
            raise WouldBlockError("accept queue empty")
        socket.waiters.add(thread)
        return _BLOCKED

    def _do_read(self, op: api.Read, thread: Thread, resumed: bool = False) -> Any:
        entry = thread.process.fds.lookup_kind(op.fd, DescriptorKind.SOCKET)
        conn: Connection = entry.obj
        if conn.rx_segments:
            payload, size = conn.rx_segments.popleft()
            conn.rx_bytes -= size
            self.kernel.memory.uncharge(
                conn.charge_target(), size, "socket_buffer"
            )
            return payload
        if conn.eof:
            return None
        if not op.blocking:
            raise WouldBlockError("no data available")
        conn.rx_waiters.add(thread)
        return _BLOCKED

    def _do_write(self, op: api.Write, thread: Thread) -> int:
        entry = thread.process.fds.lookup_kind(op.fd, DescriptorKind.SOCKET)
        conn: Connection = entry.obj
        self.kernel.stack.transmit_response(conn, op.payload, op.size_bytes)
        return op.size_bytes

    def _do_close(self, op: api.Close, thread: Thread) -> None:
        entry = thread.process.fds.remove(op.fd)
        self.kernel.release_descriptor(entry)
        if thread.process.event_queue is not None:
            thread.process.event_queue.retract(op.fd)
        return None

    # ------------------------------------------------------------------
    # Descriptor passing
    # ------------------------------------------------------------------

    def _do_send_descriptor(self, op: api.SendDescriptor, thread: Thread) -> int:
        entry = thread.process.fds.lookup(op.fd)
        target = self.kernel.processes.get(op.target_pid)
        if target is None or not target.alive:
            raise InvalidArgumentError(f"no such process: {op.target_pid}")
        new_entry = target.fds.allocate(entry.kind, entry.obj)
        self.kernel.acquire_descriptor(new_entry)
        return new_entry.fd

    # ------------------------------------------------------------------
    # Pipes
    # ------------------------------------------------------------------

    def _do_pipe_create(self, op: api.PipeCreate, thread: Thread) -> int:
        from repro.kernel.pipes import Pipe

        pipe = Pipe(name=op.name, capacity=op.capacity)
        entry = thread.process.fds.allocate(DescriptorKind.PIPE, pipe)
        pipe.fd_refs = 1
        return entry.fd

    def _do_pipe_write(self, op: api.PipeWrite, thread: Thread) -> bool:
        entry = thread.process.fds.lookup_kind(op.fd, DescriptorKind.PIPE)
        pipe = entry.obj
        ok = pipe.try_write(op.message)
        if ok:
            pipe.read_waiters.wake_all(self.kernel.wake, "pipe")
        return ok

    def _do_pipe_read(self, op: api.PipeRead, thread: Thread, resumed: bool = False) -> Any:
        entry = thread.process.fds.lookup_kind(op.fd, DescriptorKind.PIPE)
        pipe = entry.obj
        ok, message = pipe.try_read()
        if ok:
            return message
        if pipe.closed:
            return None
        if not op.blocking:
            raise WouldBlockError("pipe empty")
        pipe.read_waiters.add(thread)
        return _BLOCKED

    # ------------------------------------------------------------------
    # select()
    # ------------------------------------------------------------------

    def _fd_ready(self, thread: Thread, fd: int) -> bool:
        entry = thread.process.fds.lookup(fd)
        if entry.kind is DescriptorKind.LISTEN_SOCKET:
            return entry.obj.acceptable
        if entry.kind is DescriptorKind.SOCKET:
            return entry.obj.readable
        raise BadDescriptorError(f"select on non-socket descriptor {fd}")

    def _do_select(self, op: api.Select, thread: Thread, resumed: bool = False) -> Any:
        if not op.fds:
            raise InvalidArgumentError("select with empty descriptor set")
        ready = [fd for fd in op.fds if self._fd_ready(thread, fd)]
        if ready:
            return ready
        if resumed and thread.wake_tag == "timeout":
            return []
        if op.timeout_us is not None and op.timeout_us <= 0:
            return []
        for fd in op.fds:
            entry = thread.process.fds.lookup(fd)
            if entry.kind is DescriptorKind.LISTEN_SOCKET:
                entry.obj.waiters.add(thread)
            else:
                entry.obj.rx_waiters.add(thread)
        if op.timeout_us is not None and not resumed:
            self._arm_timer(thread, op.timeout_us)
        elif op.timeout_us is not None and resumed:
            # Spurious wake with a timeout pending: re-arm for the
            # remaining... we conservatively re-arm the full timeout.
            self._arm_timer(thread, op.timeout_us)
        return _BLOCKED

    # ------------------------------------------------------------------
    # Scalable event API
    # ------------------------------------------------------------------

    def _do_evq_create(self, op: api.EventQueueCreate, thread: Thread) -> int:
        process = thread.process
        if process.event_queue is None:
            process.event_queue = ProcessEventQueue(f"evq:{process.name}")
        entry = process.fds.allocate(
            DescriptorKind.EVENT_QUEUE, process.event_queue
        )
        return entry.fd

    def _get_evq(self, thread: Thread, evq_fd: int) -> ProcessEventQueue:
        entry = thread.process.fds.lookup_kind(evq_fd, DescriptorKind.EVENT_QUEUE)
        return entry.obj

    def _do_evq_declare(self, op: api.EventDeclare, thread: Thread) -> None:
        evq = self._get_evq(thread, op.evq_fd)
        entry = thread.process.fds.lookup(op.fd)
        evq.declare(op.fd)
        # Level-triggered semantics: if the descriptor is already ready
        # (e.g. the request data raced ahead of accept()), deliver the
        # event now -- otherwise the readiness would be lost forever.
        if entry.kind is DescriptorKind.LISTEN_SOCKET and entry.obj.acceptable:
            priority = entry.obj.charge_target().attrs.numeric_priority
            evq.post(IOEvent("acceptable", op.fd, priority=priority))
        elif entry.kind is DescriptorKind.SOCKET and entry.obj.readable:
            priority = entry.obj.charge_target().attrs.numeric_priority
            evq.post(IOEvent("readable", op.fd, priority=priority))
        return None

    def _do_evq_get(self, op: api.EventGet, thread: Thread, resumed: bool = False) -> Any:
        evq = self._get_evq(thread, op.evq_fd)
        event = evq.pop()
        if event is not None:
            return event
        if resumed and thread.wake_tag == "timeout":
            return None
        if op.timeout_us is not None and op.timeout_us <= 0:
            return None
        evq.waiters.add(thread)
        if op.timeout_us is not None:
            self._arm_timer(thread, op.timeout_us)
        return _BLOCKED

    # ------------------------------------------------------------------
    # Container operations
    # ------------------------------------------------------------------

    def _container_arg(self, thread: Thread, fd: int) -> ResourceContainer:
        entry = thread.process.fds.lookup_kind(fd, DescriptorKind.CONTAINER)
        return entry.obj

    def _checked(
        self, thread: Thread, fd: Optional[int], right: Right, operation: str,
        container: Optional[ResourceContainer] = None,
    ) -> ResourceContainer:
        """The container behind ``fd`` (or ``container``) once the ACL
        grants the caller ``right`` for ``operation``."""
        if container is None:
            container = self._container_arg(thread, fd)
        check_access(container, thread.process.pid, right,
                     enforce=self.kernel.config.container_acl, operation=operation)
        return container

    def _parent_arg(self, thread: Thread, fd: Optional[int]):
        return None if fd is None else self._container_arg(thread, fd)

    def _execute_container_op(self, op: api.Syscall, thread: Thread) -> Any:
        if not self.kernel.config.container_api_enabled:
            raise ContainerPolicyError(
                "resource-container API is disabled in this kernel mode"
            )
        handler = _CONTAINER_OPS.get(type(op))
        if handler is None:
            raise InvalidArgumentError(f"unknown syscall: {op!r}")
        return handler(self, op, thread)

    def _rc_create(self, op: api.ContainerCreate, thread: Thread) -> int:
        parent = self._parent_arg(thread, op.parent_fd)
        container = self.kernel.containers.create(
            op.name, attrs=op.attrs, parent=parent
        )
        acl_of(container).owner_pid = thread.process.pid
        return thread.process.fds.allocate(DescriptorKind.CONTAINER, container).fd

    def _rc_set_parent(self, op: api.ContainerSetParent, thread: Thread) -> None:
        container = self._checked(thread, op.fd, Right.ADMIN, "set_parent")
        parent = self._parent_arg(thread, op.parent_fd)
        self.kernel.containers.set_parent(container, parent)

    def _rc_set_attrs(self, op: api.ContainerSetAttrs, thread: Thread) -> None:
        if not isinstance(op.attrs, ContainerAttributes):
            raise InvalidArgumentError("attrs must be ContainerAttributes")
        container = self._checked(thread, op.fd, Right.ADMIN, "set_attributes")
        self.kernel.containers.set_attributes(container, op.attrs)

    def _rc_get_attrs(self, op: api.ContainerGetAttrs, thread: Thread) -> Any:
        container = self._checked(thread, op.fd, Right.OBSERVE, "get_attributes")
        return self.kernel.containers.get_attributes(container)

    def _rc_get_usage(self, op: api.ContainerGetUsage, thread: Thread) -> Any:
        container = self._checked(thread, op.fd, Right.OBSERVE, "get_usage")
        # Observation point: settle batched charges so the snapshot
        # matches what an unbatched dispatcher would report.
        self.kernel.cpu.flush_charges()
        return self.kernel.containers.get_usage(container, recursive=op.recursive)

    def _rc_grant(self, op: api.ContainerGrant, thread: Thread) -> None:
        container = self._checked(thread, op.fd, Right.ADMIN, "grant")
        if not isinstance(op.rights, Right):
            raise InvalidArgumentError("rights must be a Right flag set")
        acl_of(container).grant(op.target_pid, op.rights)

    def _rc_bind_thread(self, op: api.ContainerBindThread, thread: Thread) -> None:
        container = self._checked(thread, op.fd, Right.BIND, "bind_thread")
        if not container.is_leaf:
            raise ContainerPolicyError(
                "threads may only be bound to leaf containers "
                f"({container.name!r} has children)"
            )
        now = self.kernel.sim.now
        self.kernel.containers.bindings.bind_thread(thread, container, now)

    def _rc_get_binding(self, op: api.ContainerGetBinding, thread: Thread) -> int:
        container = thread.resource_binding
        if container is None:
            raise ContainerPolicyError("thread has no resource binding")
        self.kernel.containers.add_descriptor_ref(container)
        return thread.process.fds.allocate(DescriptorKind.CONTAINER, container).fd

    def _rc_reset_binding(self, op: api.Syscall, thread: Thread) -> None:
        thread.scheduler_binding.reset_to(thread.resource_binding, self.kernel.sim.now)

    def _rc_bind_socket(self, op: api.ContainerBindSocket, thread: Thread) -> None:
        container = self._checked(thread, op.container_fd, Right.BIND, "bind_socket")
        kinds = DescriptorKind.SOCKET, DescriptorKind.LISTEN_SOCKET, DescriptorKind.FILE
        socket = thread.process.fds.lookup_kind(op.sock_fd, *kinds).obj
        old = socket.container
        container.ref_object_binding()
        socket.container = container
        if old is not None:
            self.kernel.containers.drop_object_binding(old)

    def _rc_send_to(self, op: api.ContainerSendTo, thread: Thread) -> int:
        container = self._checked(thread, op.fd, Right.TRANSFER, "send_to")
        target = self.kernel.processes.get(op.target_pid)
        if target is None or not target.alive:
            raise InvalidArgumentError(f"no such process: {op.target_pid}")
        self.kernel.containers.add_descriptor_ref(container)
        entry = target.fds.allocate(DescriptorKind.CONTAINER, container)
        # Receiving a container carries default rights with it.
        acl_of(container).grant(op.target_pid, DEFAULT_TRANSFER_RIGHTS)
        return entry.fd

    def _rc_get_handle(self, op: api.ContainerGetHandle, thread: Thread) -> int:
        container = self._checked(thread, None, Right.OBSERVE, "get_handle",
                                  self.kernel.containers.lookup(op.cid))
        self.kernel.containers.add_descriptor_ref(container)
        return thread.process.fds.allocate(DescriptorKind.CONTAINER, container).fd


# Dispatch tables, keyed by the syscall record's exact type.


def _cost(path: str):
    """Entry cost read from the kernel's cost model at ``path``."""
    read = operator.attrgetter(path)
    return lambda executor, op, thread: read(executor.kernel.costs)


def _constant(value):
    return lambda executor, op, thread: value


_ENTRY_COSTS = {
    api.Compute: SyscallExecutor._compute_cost,
    api.Sleep: _constant(0.0),
    api.GetTime: _constant(0.0),
    api.Yield: _constant(0.0),
    api.Exit: _constant(0.0),
    api.Socket: _cost("syscall_bind"),
    api.Bind: _cost("syscall_bind"),
    api.Listen: _cost("syscall_listen"),
    api.Accept: lambda executor, op, thread: (
        executor.kernel.costs.syscall_accept
        + executor.kernel.costs.syscall_socket_alloc
    ),
    api.Read: _cost("syscall_read"),
    api.Write: SyscallExecutor._write_cost,
    api.Close: SyscallExecutor._close_cost,
    api.GetPeerName: _constant(1.0),
    api.Select: SyscallExecutor._select_cost,
    api.EventQueueCreate: _cost("syscall_event_declare"),
    api.EventDeclare: _cost("syscall_event_declare"),
    api.EventGet: _cost("syscall_event_get"),
    api.PipeCreate: _cost("syscall_bind"),
    api.PipeWrite: _cost("syscall_write_base"),
    api.PipeRead: _cost("syscall_read"),
    # CPU side only (lookup + copy-out); a miss's extra latency is disk
    # time, spent blocked, not CPU (see SyscallExecutor._do_file_read).
    api.ReadFile: lambda executor, op, thread: (
        executor.kernel.fs.read_cpu_cost(op.path)
    ),
    api.OpenFile: _cost("syscall_bind"),
    api.FdReadFile: SyscallExecutor._fd_read_file_cost,
    api.Fork: _cost("syscall_fork"),
    api.SpawnThread: _cost("syscall_thread_create"),
    api.ContainerCreate: _cost("container_ops.create"),
    api.ContainerSetParent: _cost("container_ops.set_parent"),
    api.ContainerSetAttrs: _cost("container_ops.set_attributes"),
    api.ContainerGetAttrs: _cost("container_ops.get_attributes"),
    api.ContainerGetUsage: _cost("container_ops.get_usage"),
    api.ContainerBindThread: _cost("container_ops.rebind_thread"),
    api.ContainerGetBinding: _cost("container_ops.get_handle"),
    api.ContainerResetSchedBinding: _cost("container_ops.reset_scheduler_binding"),
    api.ContainerBindSocket: _cost("container_ops.bind_descriptor"),
    api.ContainerSendTo: _cost("container_ops.move_between_processes"),
    api.SendDescriptor: _cost("container_ops.move_between_processes"),
    api.ContainerGetHandle: _cost("container_ops.get_handle"),
    api.ContainerGrant: _cost("container_ops.set_attributes"),
}

#: Entry-phase handlers; a type missing here is a container operation
#: (or unknown), see ``SyscallExecutor._execute_container_op``.
_EXECUTE = {
    api.Compute: _constant(None),
    api.GetTime: lambda executor, op, thread: executor.kernel.sim.now,
    api.Yield: _constant(None),
    api.Exit: lambda executor, op, thread: _EXIT,
    api.Sleep: SyscallExecutor._do_sleep,
    api.Socket: SyscallExecutor._do_socket,
    api.Bind: SyscallExecutor._do_bind,
    api.Listen: SyscallExecutor._do_listen,
    api.Accept: SyscallExecutor._do_accept,
    api.Read: SyscallExecutor._do_read,
    api.Write: SyscallExecutor._do_write,
    api.Close: SyscallExecutor._do_close,
    api.GetPeerName: lambda executor, op, thread: thread.process.fds.lookup_kind(
        op.fd, DescriptorKind.SOCKET
    ).obj.src_addr,
    api.Select: SyscallExecutor._do_select,
    api.EventQueueCreate: SyscallExecutor._do_evq_create,
    api.EventDeclare: SyscallExecutor._do_evq_declare,
    api.EventGet: SyscallExecutor._do_evq_get,
    api.SendDescriptor: SyscallExecutor._do_send_descriptor,
    api.PipeCreate: SyscallExecutor._do_pipe_create,
    api.PipeWrite: SyscallExecutor._do_pipe_write,
    api.PipeRead: SyscallExecutor._do_pipe_read,
    api.ReadFile: lambda executor, op, thread: executor._do_file_read(op.path, thread),
    api.OpenFile: SyscallExecutor._do_open_file,
    api.FdReadFile: SyscallExecutor._do_fd_read_file,
    api.Fork: SyscallExecutor._do_fork,
    api.SpawnThread: SyscallExecutor._do_spawn_thread,
}

_CONTAINER_OPS = {
    api.ContainerCreate: SyscallExecutor._rc_create,
    api.ContainerSetParent: SyscallExecutor._rc_set_parent,
    api.ContainerSetAttrs: SyscallExecutor._rc_set_attrs,
    api.ContainerGetAttrs: SyscallExecutor._rc_get_attrs,
    api.ContainerGetUsage: SyscallExecutor._rc_get_usage,
    api.ContainerGrant: SyscallExecutor._rc_grant,
    api.ContainerBindThread: SyscallExecutor._rc_bind_thread,
    api.ContainerGetBinding: SyscallExecutor._rc_get_binding,
    api.ContainerResetSchedBinding: SyscallExecutor._rc_reset_binding,
    api.ContainerBindSocket: SyscallExecutor._rc_bind_socket,
    api.ContainerSendTo: SyscallExecutor._rc_send_to,
    api.ContainerGetHandle: SyscallExecutor._rc_get_handle,
}


def _resumed(handler):
    """``handler`` re-run after a wakeup (its ``resumed`` flag set)."""
    return lambda executor, op, thread: handler(executor, op, thread, resumed=True)


#: Post-wakeup handlers: only the syscalls that can block.
_RESUME = {
    api.Sleep: _constant(None),
    api.ReadFile: lambda executor, op, thread: executor.kernel.fs.size_of(op.path),
    api.FdReadFile: lambda executor, op, thread: executor.kernel.fs.size_of(
        thread.process.fds.lookup_kind(op.fd, DescriptorKind.FILE).obj.path
    ),
    api.Accept: _resumed(SyscallExecutor._do_accept),
    api.Read: _resumed(SyscallExecutor._do_read),
    api.Select: _resumed(SyscallExecutor._do_select),
    api.EventGet: _resumed(SyscallExecutor._do_evq_get),
    api.PipeRead: _resumed(SyscallExecutor._do_pipe_read),
}
