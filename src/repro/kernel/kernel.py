"""The Kernel facade: one simulated host.

Ties together the container manager, scheduler, CPU dispatcher, TCP
stack, memory accountant, filesystem, and syscall executor, and selects
the network-processing model (:class:`SystemMode`):

- ``UNMODIFIED`` -- per-process resource principals (each process's
  default container), softirq protocol processing charged to nobody.
- ``LRP``       -- per-process principals, early demux, protocol
  processing charged to the receiving process and scheduled at its
  priority.
- ``RC``        -- the paper's system: full resource-container API,
  early demux to containers, priority-ordered protocol processing
  charged per container.

The container machinery is active in every mode (processes *are*
containers internally), which mirrors the paper's framing: the
unmodified kernel is simply the special case where resource principals
coincide with processes and kernel network processing goes unaccounted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.attributes import ContainerAttributes, timeshare_attrs
from repro.core.container import ResourceContainer
from repro.core.operations import ContainerManager
from repro.fs.filesystem import BufferCache, FileSystem
from repro.io import DiskDevice, make_io_scheduler
from repro.kernel.costs import CostModel, DEFAULT_COSTS
from repro.kernel.cpu import CPU, InterruptJob
from repro.kernel.process import Process, Thread, ThreadBody, ThreadState
from repro.kernel.syscalls import SyscallExecutor
from repro.mem.physmem import MemoryAccountant
from repro.net.packet import Packet, PacketKind, free_packet
from repro.net.procmodel import KernelNetThread, NetMode, protocol_cost
from repro.net.tcp import Connection, ListenSocket, TcpStack
from repro.sched.container_sched import ContainerScheduler
from repro.sim.engine import Simulation
from repro.syscall.api import IOEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


class SystemMode(enum.Enum):
    """Which of the paper's three compared systems this kernel is."""

    UNMODIFIED = "unmodified"
    LRP = "lrp"
    RC = "rc"

    @property
    def net_mode(self) -> NetMode:
        """Network-processing model implied by the system mode."""
        if self is SystemMode.UNMODIFIED:
            return NetMode.SOFTIRQ
        if self is SystemMode.LRP:
            return NetMode.LRP
        return NetMode.RC


@dataclass
class KernelConfig:
    """Tunable kernel parameters (defaults match the experiments)."""

    mode: SystemMode = SystemMode.RC
    #: Number of processors.  The paper's testbed (and every experiment)
    #: is a uniprocessor; >1 enables the SMP variant of section 2.
    n_cpus: int = 1
    #: Core that services interrupt delivery (hardware and softirq).
    #: Core 0 by default, as on the paper's testbed-era hardware; cluster
    #: hosts pin it elsewhere to keep the accept path off the cores that
    #: run workers.
    irq_core: int = 0
    #: Preempt a running entity when a strictly higher-priority one wakes.
    preemptive: bool = True
    #: Charge a context-switch cost when the CPU changes entity.
    context_switch_cost: bool = True
    #: One-way client<->server wire latency, microseconds.
    wire_delay_us: float = 100.0
    #: Scheduler time slice.
    quantum_us: float = 1_000.0
    #: Cap-accounting window (hard CPU limits enforced per window).
    window_us: float = 10_000.0
    #: Bound on per-container (RC) / per-socket (LRP) packet queues.
    net_queue_limit: int = 256
    #: Scheduler-binding pruning: pass interval and staleness age.
    prune_interval_us: float = 100_000.0
    prune_age_us: float = 100_000.0
    #: Whether applications may use the container syscalls.  Defaults to
    #: mode == RC; override for experiments that need otherwise.
    container_api: Optional[bool] = None
    #: Enforce the container access-control model (the extension the
    #: paper's section 4.1 defers).  Off by default: the paper's own
    #: experiments predate it.
    container_acl: bool = False
    #: Minimum gap between syn_dropped notifications per (socket, /24).
    syn_notify_interval_us: float = 10_000.0
    #: Optional scheduler override: callable(kernel) -> Scheduler.  Used
    #: by the scheduler-policy ablation benchmarks (lottery, decay-usage).
    scheduler_factory: Optional[Callable] = None
    #: Disk queueing discipline: "fifo" (arrival order, principal-blind)
    #: or "wfq" (container-weighted fair queueing; see repro.io).
    io_scheduler: str = "fifo"
    #: Buffer-cache capacity override, bytes (None = BufferCache default).
    #: Experiments shrink this to force reads onto the disk.
    buffer_cache_bytes: Optional[int] = None

    @property
    def container_api_enabled(self) -> bool:
        if self.container_api is not None:
            return self.container_api
        return self.mode is SystemMode.RC


class Kernel:
    """One simulated host kernel."""

    def __init__(
        self,
        sim: Simulation,
        costs: CostModel = DEFAULT_COSTS,
        config: Optional[KernelConfig] = None,
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.config = config if config is not None else KernelConfig()
        # A zero slice or window never advances simulated time (the
        # window timer re-arms at +0), so reject both before any use.
        for field in ("quantum_us", "window_us"):
            value = getattr(self.config, field)
            if not value > 0.0:
                raise ValueError(f"{field} must be positive, got {value}")
        #: Set by the cluster layer so trace records and observability
        #: lanes can distinguish hosts sharing one simulation.
        self.host_name: Optional[str] = None
        # Per-simulation ids: hosts sharing an engine share each stream.
        self.containers = ContainerManager(sim.id_stream("cid"))
        self._pids = sim.id_stream("pid")
        self._tids = sim.id_stream("tid")
        if self.config.scheduler_factory is not None:
            self.scheduler = self.config.scheduler_factory(self)
        else:
            self.scheduler = ContainerScheduler(
                self.containers.root,
                quantum_us=self.config.quantum_us,
                window_us=self.config.window_us,
                n_cpus=self.config.n_cpus,
            )
        # Let the scheduler evict per-container memos (weights, group
        # homes, hierarchy derivations) as principals die; a no-op for
        # policies without such caches.
        self.containers.on_destroy.append(self.scheduler.note_container_destroyed)
        self.cpu = CPU(self, n_cpus=self.config.n_cpus)
        self.stack = TcpStack(self, wire_delay_us=self.config.wire_delay_us)
        self.containers.on_destroy.append(self.stack.shaper.forget)
        self.memory = MemoryAccountant()
        cache_bytes = self.config.buffer_cache_bytes
        self.fs = FileSystem(
            costs,
            cache=(
                BufferCache(capacity_bytes=cache_bytes, accountant=self.memory)
                if cache_bytes is not None
                else BufferCache(accountant=self.memory)
            ),
        )
        self.disk = DiskDevice(
            sim, costs, scheduler=make_io_scheduler(self.config.io_scheduler)
        )
        self.executor = SyscallExecutor(self)
        self.processes: dict[int, Process] = {}
        self.net_threads: dict[int, KernelNetThread] = {}
        self.stats_early_drops = 0
        self.stats_softirq_drops = 0
        self._syn_notify_last: dict[tuple[int, int], float] = {}
        # Opt-in conservation checking and observability: the
        # Simulation resolved both switches (argument or env var) once.
        # Local imports: the analysis and obs layers are optional
        # instrumentation, not kernel dependencies, and a run that
        # leaves them off never loads them.
        self.sanitizer = None
        if sim.sanitize:
            from repro.analysis.sanitizer import ChargingSanitizer

            self.sanitizer = ChargingSanitizer(self).install()
        # Give the scheduler the trace bus so policy charges can be
        # observed; the bus stays inactive unless something subscribes.
        self.scheduler.trace = sim.trace
        self.observability = sim.observability
        if self.observability is None and sim.observe:
            from repro.obs.observe import Observability

            self.observability = Observability(sim)
            sim.observability = self.observability
        if self.observability is not None:
            self._register_obs_sampler(self.observability)
        self._start_timers()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def attach_observability(self, window_us: Optional[float] = None):
        """Ensure this kernel's simulation is observed; idempotent.

        ``window_us`` opts into windowed telemetry when the
        observability is created here (an already-attached instance
        keeps its own window configuration).  Either way the kernel's
        live-state gauge sampler is registered with the window
        pipeline, so telemetry windows see memory residency, disk
        queue depth, busy cores, and the SYN backlog.
        """
        from repro.obs import observe as _observe

        obs = self.observability
        if obs is None:
            obs = _observe.Observability(self.sim, window_us=window_us)
            self.observability = obs
            self.sim.observability = obs
        self._register_obs_sampler(obs)
        return obs

    def _register_obs_sampler(self, obs) -> None:
        pipeline = getattr(obs, "pipeline", None)
        if pipeline is not None and self._obs_sample not in pipeline._samplers:
            pipeline.add_sampler(self._obs_sample)

    def _obs_sample(self, now: float):
        """Live-state gauges read at every telemetry window close.

        Pure reads only: sampling must never perturb the simulation.
        """
        yield (
            "<host>", "cpu", "busy_cores",
            float(self.cpu.n_cpus - self.cpu.idle_cores),
        )
        yield (
            "<host>", "mem", "resident_bytes",
            float(self.memory.charged_bytes),
        )
        yield ("<host>", "disk", "queue_depth", float(self.disk.queued))
        backlog = 0
        for socket in self.stack.listeners:
            backlog += len(socket.syn_queue)
        yield ("<host>", "net", "syn_backlog", float(backlog))

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _start_timers(self) -> None:
        self.sim.after(self.config.window_us, self._window_tick)
        self.sim.after(self.config.prune_interval_us, self._prune_tick)

    def _window_tick(self) -> None:
        # Deferred charges must land in the window that is closing.
        self.cpu.flush_charges()
        self.scheduler.window_roll(self.sim.now)
        # Capped-out entities may be eligible again.
        self.cpu.notify_ready()
        self.sim.after(self.config.window_us, self._window_tick)

    def _prune_tick(self) -> None:
        self.containers.bindings.prune_watched(
            self.sim.now, self.config.prune_age_us
        )
        self.sim.after(self.config.prune_interval_us, self._prune_tick)

    # ------------------------------------------------------------------
    # Processes and threads
    # ------------------------------------------------------------------

    def spawn_process(
        self,
        name: str,
        main: Optional[Callable[[], ThreadBody]] = None,
        container_attrs: Optional[ContainerAttributes] = None,
        parent_container: Optional[ResourceContainer] = None,
    ) -> Process:
        """Create a process with its default container; optionally start
        a first thread running ``main()``."""
        attrs = container_attrs if container_attrs is not None else timeshare_attrs()
        default = self.containers.create(
            f"proc:{name}", attrs=attrs, parent=parent_container
        )
        process = Process(next(self._pids), name, default)
        self.processes[process.pid] = process
        if self.config.mode.net_mode is not NetMode.SOFTIRQ:
            net_thread = KernelNetThread(
                process, self, queue_limit=self.config.net_queue_limit
            )
            self.net_threads[process.pid] = net_thread
            self.scheduler.attach(net_thread)
        if main is not None:
            self.spawn_thread(process, main(), f"{name}:main")
        return process

    def spawn_thread(
        self,
        process: Process,
        body: ThreadBody,
        name: str,
        binding: Optional[ResourceContainer] = None,
    ) -> Thread:
        """Create and start a thread in ``process``.

        The thread's initial resource binding is ``binding`` or the
        process default container (inheritance from the creator, paper
        section 4.2).
        """
        thread = Thread(next(self._tids), process, body, name)
        target = binding if binding is not None else process.default_container
        self.containers.bindings.bind_thread(thread, target, self.sim.now)
        process.threads.append(thread)
        self.scheduler.attach(thread)
        self.executor.start_thread(thread)
        return thread

    def fork_process(
        self,
        calling_thread: Thread,
        child_main: Callable[[], ThreadBody],
        name: str,
        inherit_binding: bool,
        pass_fds: Optional[list] = None,
    ) -> Process:
        """fork(): new process, inherited descriptor table, default
        container -- or the caller's current binding if requested (the
        traditional-CGI container-inheritance path, section 4.8)."""
        parent = calling_thread.process
        if inherit_binding and calling_thread.resource_binding is not None:
            binding: Optional[ResourceContainer] = calling_thread.resource_binding
            default = binding
        else:
            binding = None
            default = self.containers.create(f"proc:{name}", attrs=timeshare_attrs())
        process = Process(next(self._pids), name, default)
        # fork() inherits descriptors; every copy takes a reference on
        # the underlying object.  pass_fds restricts inheritance (the
        # CGI path passes only the request's connection).
        allowed = set(pass_fds) if pass_fds is not None else None
        for entry in parent.fds.entries():
            if allowed is not None and entry.fd not in allowed:
                continue
            process.fds.install_copy_of(entry)
            self.acquire_descriptor(entry)
        if inherit_binding and binding is not None:
            # No fresh default container was created; the inherited one
            # is kept alive by the child thread's resource binding and by
            # whatever descriptor references already exist.
            process.owns_default_container = False
        self.processes[process.pid] = process
        if self.config.mode.net_mode is not NetMode.SOFTIRQ:
            net_thread = KernelNetThread(
                process, self, queue_limit=self.config.net_queue_limit
            )
            self.net_threads[process.pid] = net_thread
            self.scheduler.attach(net_thread)
        self.spawn_thread(process, child_main(), f"{name}:main", binding=binding)
        return process

    def thread_exit(self, thread: Thread, error: Optional[BaseException] = None) -> None:
        """Tear down a finished thread; may trigger process exit."""
        if error is not None:
            raise RuntimeError(
                f"thread {thread.name!r} misbehaved: {error!r}"
            ) from error
        thread.state = ThreadState.DONE
        thread.pending_op = None
        thread.clear_waits()
        self.scheduler.detach(thread)
        self.containers.bindings.unbind_thread(thread)
        process = thread.process
        if process.alive and not process.live_threads():
            self._process_exit(process)

    def _process_exit(self, process: Process) -> None:
        """Close every descriptor and retire the process."""
        process.alive = False
        for entry in list(process.fds.entries()):
            process.fds.remove(entry.fd)
            self.release_descriptor(entry)
        net_thread = self.net_threads.pop(process.pid, None)
        if net_thread is not None:
            self.scheduler.detach(net_thread)
        if process.owns_default_container:
            self.containers.release(process.default_container)
        del self.processes[process.pid]

    # ------------------------------------------------------------------
    # Descriptor reference management
    # ------------------------------------------------------------------

    def acquire_descriptor(self, entry) -> None:
        """A new descriptor-table entry now refers to ``entry.obj``."""
        from repro.kernel.descriptors import DescriptorKind

        if entry.kind is DescriptorKind.CONTAINER:
            self.containers.add_descriptor_ref(entry.obj)
        elif entry.kind in (DescriptorKind.SOCKET, DescriptorKind.LISTEN_SOCKET,
                            DescriptorKind.PIPE, DescriptorKind.FILE):
            entry.obj.fd_refs += 1

    def release_descriptor(self, entry) -> None:
        """A descriptor-table entry was removed; finalize at zero refs."""
        from repro.kernel.descriptors import DescriptorKind

        if entry.kind is DescriptorKind.CONTAINER:
            self.containers.release(entry.obj)
            return
        if entry.kind is DescriptorKind.SOCKET:
            conn: Connection = entry.obj
            conn.fd_refs -= 1
            if conn.fd_refs <= 0:
                self.stack.server_close(conn)
            return
        if entry.kind is DescriptorKind.LISTEN_SOCKET:
            socket: ListenSocket = entry.obj
            socket.fd_refs -= 1
            if socket.fd_refs <= 0:
                socket.closed = True
                self.stack.unregister_listen(socket)
                if socket.container is not None:
                    container = socket.container
                    socket.container = None
                    self.containers.drop_object_binding(container)
            return
        if entry.kind is DescriptorKind.PIPE:
            pipe = entry.obj
            pipe.fd_refs -= 1
            if pipe.fd_refs <= 0:
                pipe.closed = True
                pipe.read_waiters.wake_all(self.wake, "pipe-eof")
            return
        if entry.kind is DescriptorKind.FILE:
            handle = entry.obj
            handle.fd_refs -= 1
            if handle.fd_refs <= 0 and handle.container is not None:
                container = handle.container
                handle.container = None
                self.containers.drop_object_binding(container)
            return

    # ------------------------------------------------------------------
    # CPU / entity plumbing
    # ------------------------------------------------------------------

    def entity_action(self, entity: object) -> None:
        """An entity finished its current unit of work; act on it."""
        if isinstance(entity, Thread):
            self.executor.finish_phase(entity)
            return
        if isinstance(entity, KernelNetThread):
            _container, packet = entity.take_completed()
            self.stack.protocol_input(packet)
            free_packet(packet)
            return
        raise TypeError(f"unknown schedulable entity: {entity!r}")

    def is_net_thread(self, entity: object) -> bool:
        """True for kernel network threads (their charges count as
        network CPU in the usage ledgers)."""
        return isinstance(entity, KernelNetThread)

    def wake(self, thread: Thread, tag: object = None) -> None:
        """Wake a blocked thread (wait-queue callback target)."""
        self.executor.wake(thread, tag)

    # ------------------------------------------------------------------
    # Disk completion path
    # ------------------------------------------------------------------

    def disk_read_complete(self, request) -> None:
        """A disk read finished: populate the cache, wake the readers.

        The block becomes resident on behalf of the request's charging
        container (which pays for the bytes through the memory
        accountant), then every thread parked on the request's wait
        queue resumes.
        """
        self.fs.cache.insert(
            request.path, request.size_bytes, owner=request.container
        )
        request.waiters.wake_all(self.wake, "disk")

    # ------------------------------------------------------------------
    # Network input path
    # ------------------------------------------------------------------

    def net_input(self, packet: Packet) -> None:
        """A packet arrived at the NIC: post the hardware interrupt."""
        if self.sim.trace.active:
            self._publish_arrival(packet)
        mode = self.config.mode.net_mode
        if mode is NetMode.SOFTIRQ:
            job = InterruptJob(
                cost_us=self.costs.interrupt_per_packet,
                action=lambda p=packet: self._softirq_enqueue(p),
                charge=None,
                note="hardintr",
            )
        else:
            job = InterruptJob(
                cost_us=self.costs.interrupt_per_packet + self.costs.early_demux,
                action=lambda p=packet: self._early_demux(p),
                charge=None,
                note="hardintr+demux",
            )
        self.cpu.post_hard_interrupt(job)

    def net_input_batch(self, packets: list[Packet]) -> None:
        """Coalesced arrival of several back-to-back packets.

        One hardware-interrupt job covers the whole batch at the exact
        sum of the per-packet costs (NIC interrupt coalescing); the
        per-packet semantics are unchanged.  Used by high-rate open-loop
        generators (the SYN flooder) to keep event counts manageable.
        """
        if not packets:
            return
        if self.sim.trace.active:
            for packet in packets:
                self._publish_arrival(packet)
        mode = self.config.mode.net_mode
        count = len(packets)
        if mode is NetMode.SOFTIRQ:
            job = InterruptJob(
                cost_us=self.costs.interrupt_per_packet * count,
                action=lambda ps=packets: self._softirq_enqueue_batch(ps),
                charge=None,
                note="hardintr-batch",
            )
        else:
            job = InterruptJob(
                cost_us=(self.costs.interrupt_per_packet + self.costs.early_demux)
                * count,
                action=lambda ps=packets: self._early_demux_batch(ps),
                charge=None,
                note="hardintr+demux-batch",
            )
        self.cpu.post_hard_interrupt(job)

    def _protocol_input_release(self, packet: Packet) -> None:
        """Protocol-process one packet, then recycle it (the stack keeps
        payload/connection references, never the packet object)."""
        self.stack.protocol_input(packet)
        free_packet(packet)

    def _protocol_input_release_batch(self, packets: list[Packet]) -> None:
        stack_input = self.stack.protocol_input
        for packet in packets:
            stack_input(packet)
            free_packet(packet)

    def _softirq_enqueue_batch(self, packets: list[Packet]) -> None:
        """One coalesced softirq job for a batch (queue-limit checked as
        a single entry; the limit is a drop threshold, not a byte-exact
        buffer model)."""
        job = InterruptJob(
            cost_us=sum(protocol_cost(self, p) for p in packets),
            action=lambda ps=packets: self._protocol_input_release_batch(ps),
            charge=None,
            note="softirq-batch",
        )
        if not self.cpu.post_soft_interrupt(job):
            self.stats_softirq_drops += len(packets)
            for packet in packets:
                self._note_input_drop(packet)
                free_packet(packet)

    def _softirq_enqueue(self, packet: Packet) -> None:
        """Unmodified kernel: queue full protocol processing at softirq
        priority, charged to no principal."""
        job = InterruptJob(
            cost_us=protocol_cost(self, packet),
            action=lambda p=packet: self._protocol_input_release(p),
            charge=None,
            note="softirq",
        )
        if not self.cpu.post_soft_interrupt(job):
            self.stats_softirq_drops += 1
            self._note_input_drop(packet)
            free_packet(packet)

    def _publish_arrival(self, packet: Packet) -> None:
        """Trace one NIC arrival (only called when tracing is active)."""
        payload = packet.payload
        self.sim.trace.publish(
            self.sim.now,
            "net.arrival",
            seq=packet.seq,
            kind=packet.kind.value,
            req=getattr(payload, "request_id", None),
            client=getattr(payload, "client_name", None),
        )

    def _early_demux_batch(self, packets: list[Packet]) -> None:
        early_demux = self._early_demux
        for packet in packets:
            early_demux(packet)

    def _early_demux(self, packet: Packet) -> None:
        """LRP/RC: find the destination and queue for scheduled
        processing; discard unmatched or overflowing traffic early."""
        process, container, endpoint = self.stack.demux_packet(packet)
        trace = self.sim.trace
        if process is None or not process.alive:
            self.stats_early_drops += 1
            if trace.active:
                trace.publish(
                    self.sim.now, "net.demux", seq=packet.seq,
                    container=None, dropped=True,
                )
            free_packet(packet)
            return
        queue_key = None
        if self.config.mode.net_mode is NetMode.LRP:
            # LRP charges the receiving *process* and keeps per-socket
            # queues: a flooded listen socket cannot crowd out packets
            # for established connections.
            container = process.default_container
            queue_key = ("socket", id(endpoint))
        net_thread = self.net_threads.get(process.pid)
        if net_thread is None:
            self.stats_early_drops += 1
            if trace.active:
                trace.publish(
                    self.sim.now, "net.demux", seq=packet.seq,
                    container=container.name if container is not None else None,
                    dropped=True,
                )
            free_packet(packet)
            return
        if trace.active:
            trace.publish(
                self.sim.now, "net.demux", seq=packet.seq,
                container=container.name if container is not None else None,
                dropped=False,
            )
        cost = protocol_cost(self, packet)
        if not net_thread.enqueue(container, packet, cost, queue_key=queue_key):
            # A SYN's endpoint is the listener it demultiplexed to.
            self._note_input_drop(packet, endpoint)
            free_packet(packet)
            return
        # The only way a net thread becomes runnable: tell the scheduler.
        self.scheduler.on_wakeup(net_thread, self.sim.now)
        self.cpu.notify_ready(net_thread)

    def _note_input_drop(
        self, packet: Packet, socket: Optional[ListenSocket] = None
    ) -> None:
        """Bookkeeping for packets dropped before protocol processing.

        ``socket`` is the listener a dropped SYN already demultiplexed
        to, if the caller has it; otherwise the SYN is demultiplexed
        here.
        """
        if packet.kind is PacketKind.SYN:
            if socket is None:
                socket = self.stack.demux_listener(
                    packet.dst_port, packet.src_addr
                )
            if socket is not None:
                socket.stats_syns_dropped += 1
                self.note_syn_drop(socket, packet.src_addr)

    # ------------------------------------------------------------------
    # Readiness and notifications (called by the TCP stack)
    # ------------------------------------------------------------------

    def socket_became_ready(self, socket: ListenSocket) -> None:
        """A connection reached the accept queue."""
        socket.waiters.wake_all(self.wake, "acceptable")
        evq = socket.process.event_queue
        if evq is not None and socket.primary_fd is not None:
            priority = socket.charge_target().attrs.numeric_priority
            if evq.post(
                IOEvent("acceptable", socket.primary_fd, priority=priority)
            ):
                evq.waiters.wake_all(self.wake, "event")

    def conn_became_readable(self, conn: Connection) -> None:
        """Data (or EOF) arrived on an established connection."""
        conn.rx_waiters.wake_all(self.wake, "readable")
        evq = conn.process.event_queue
        if evq is not None and conn.primary_fd is not None:
            priority = conn.charge_target().attrs.numeric_priority
            if evq.post(IOEvent("readable", conn.primary_fd, priority=priority)):
                evq.waiters.wake_all(self.wake, "event")

    def note_syn_drop(self, socket: ListenSocket, src_addr: int) -> None:
        """Post a syn_dropped notification if the socket asked for them.

        Rate-limited per (socket, source /24) so a flood does not bury
        the application in notifications.
        """
        if not socket.notify_syn_drop or socket.closed:
            return
        evq = socket.process.event_queue
        if evq is None or socket.primary_fd is None:
            return
        key = (id(socket), src_addr >> 8)
        last = self._syn_notify_last.get(key)
        now = self.sim.now
        if last is not None and now - last < self.config.syn_notify_interval_us:
            return
        self._syn_notify_last[key] = now
        event = IOEvent(
            "syn_dropped", socket.primary_fd, data=src_addr, priority=1_000_000
        )
        if evq.post(event, dedup=False):
            evq.waiters.wake_all(self.wake, "event")

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------

    def all_threads(self) -> list[Thread]:
        """Every live thread on the host."""
        return [
            thread
            for process in self.processes.values()
            for thread in process.live_threads()
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Kernel(mode={self.config.mode.value}, "
            f"processes={len(self.processes)})"
        )
