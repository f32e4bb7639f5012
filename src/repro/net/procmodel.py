"""Kernel network-processing models (paper sections 3.2, 4.7, 5.1).

Three models decide where inbound protocol processing runs and who pays:

``SOFTIRQ`` (unmodified kernel)
    The hardware interrupt handler queues the packet on a bounded IP
    input queue; a software interrupt -- which preempts *every* thread
    but yields to hardware interrupts -- performs full protocol
    processing in FIFO order, charged to no resource principal.  Under
    overload this is the receive-livelock regime of [30].

``LRP`` (Lazy Receiver Processing [15])
    The interrupt handler additionally runs the packet filter
    (early demultiplexing) and hands the packet to the *destination
    process's* kernel network thread; protocol processing then happens
    at that process's scheduling priority and is charged to it.  Traffic
    that matches no socket, or that overflows the per-process queue, is
    discarded early, at interrupt-handler cost only.

``RC`` (resource containers, this paper)
    As LRP, but the early demultiplexer resolves to a *resource
    container* (the socket's bound container), the per-process network
    thread serves pending containers in priority order, and each
    container is charged for its own packets.  A container with numeric
    priority zero is serviced only when nothing else is runnable and its
    bounded queue simply drops overflow -- the SYN-flood defence.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.container import ResourceContainer, hierarchy_epoch
from repro.net.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process


class NetMode(enum.Enum):
    """Which processing model the kernel runs."""

    SOFTIRQ = "softirq"
    LRP = "lrp"
    RC = "rc"


#: Per-container (RC) or per-socket (LRP) pending-packet queue bound.
#: Sized like an aggregate socket-buffer allowance: large enough that
#: legitimate connect bursts (hundreds of clients) never overflow it
#: while a flood (tens of thousands of packets/sec against a starved
#: container) still fills it within milliseconds.
DEFAULT_NET_QUEUE_LIMIT = 256


#: A ``KernelNetThread._waiting`` stamp no version or epoch matches.
_STALE = (-1, -1, None)


class KernelNetThread:
    """Per-process kernel thread that performs protocol processing.

    Implements the Schedulable protocol.  Holds one bounded FIFO queue
    per pending container; the head of the highest-priority non-empty
    queue is processed next (ties broken by packet arrival order), as
    the prototype does: "A per-process kernel thread is used to perform
    processing of network packets in priority order of their containers.
    To ensure correct accounting, this thread sets its resource binding
    appropriately while processing each packet."
    """

    #: A net thread's scheduling key (charge container, priority) depends
    #: on the head packet of its queues, which changes with every arrival
    #: and completion, so it gets no index entry: the scheduler evaluates
    #: its key at pick time.  Only an enqueue makes it runnable, and the
    #: kernel announces each one with ``Scheduler.on_wakeup``; the
    #: scheduler keeps woken net threads in a ready set and drops them
    #: lazily once they are idle, so idle net threads cost a pick nothing.
    #: Evaluating the key is cheap between queue changes: the waiting
    #: containers' best priority is memoized (see :meth:`_waiting_memo`),
    #: so repeated picks, preemption checks and head re-checks over
    #: unchanged queues re-derive nothing, and an overflow drop on a
    #: full queue leaves the memo standing.
    sched_push_notify = False

    def __init__(
        self,
        process: "Process",
        kernel: "Kernel",
        queue_limit: int = DEFAULT_NET_QUEUE_LIMIT,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be at least 1, got {queue_limit}")
        self.process = process
        self.kernel = kernel
        self.queue_limit = queue_limit
        self.name = f"netthread:{process.name}"
        #: Non-empty packet queues by key, and the container each key
        #: charges; a key leaves both when its queue empties, so every
        #: scan below sees only live queues.
        self._queues: dict[object, deque[tuple[Packet, float]]] = {}
        self._containers: dict[object, ResourceContainer] = {}
        #: (key, container, packet, remaining_us) of the current packet.
        self._head: Optional[tuple[object, ResourceContainer, Packet, float]] = None
        #: True once any CPU has been spent on the head packet; an
        #: un-started head may still be displaced by higher-priority
        #: arrivals (selection happens at scheduler-evaluation time,
        #: which may be long before the thread actually runs).
        self._head_started = False
        #: Bumped by every queue mutation (append, relabelling overflow
        #: drop, head pop, displacement push-back, dead-queue clear).
        self._version = 0
        #: (version, hierarchy epoch, best priority among the live
        #: waiting containers or None): see :meth:`_waiting_memo`.
        self._waiting: tuple = _STALE
        self.stats_processed = 0
        self.stats_dropped = 0

    # ------------------------------------------------------------------
    # Queueing
    # ------------------------------------------------------------------

    def enqueue(
        self,
        container: ResourceContainer,
        packet: Packet,
        cost_us: float,
        queue_key: object = None,
    ) -> bool:
        """Queue a demultiplexed packet; False means overflow-dropped.

        Queues are keyed by ``queue_key`` (default: the charge
        container).  The RC model queues per *container*; the LRP model
        queues per *socket* -- LRP demultiplexes to sockets, so overload
        on one socket (a flooded listen queue) cannot crowd out traffic
        for established connections ("excess traffic is discarded
        early", per socket).
        """
        key = queue_key if queue_key is not None else ("container", container.cid)
        queue = self._queues.get(key)
        trace = self.kernel.sim.trace
        if queue is not None and len(queue) >= self.queue_limit:
            # A drop whose key already charges ``container`` (always, for
            # RC and LRP keys) changes nothing the waiting memo reads.
            if self._containers[key] is not container:
                self._containers[key] = container
                self._version += 1
            self.stats_dropped += 1
            container.usage.packets_dropped += 1
            if trace.active:
                trace.publish(
                    self.kernel.sim.now,
                    "net.enqueue",
                    seq=packet.seq,
                    container=container.name,
                    thread=self.name,
                    dropped=True,
                )
            return False
        if queue is None:
            queue = self._queues[key] = deque()
        self._containers[key] = container
        self._version += 1
        queue.append((packet, cost_us))
        if trace.active:
            trace.publish(
                self.kernel.sim.now,
                "net.enqueue",
                seq=packet.seq,
                container=container.name,
                thread=self.name,
                dropped=False,
            )
        return True

    def pending_packets(self) -> int:
        """Total queued packets (head included)."""
        total = sum(len(q) for q in self._queues.values())
        return total + (1 if self._head is not None else 0)

    # ------------------------------------------------------------------
    # Schedulable protocol
    # ------------------------------------------------------------------

    @property
    def runnable(self) -> bool:
        return self._head is not None or bool(self._queues)

    def charge_container(self) -> Optional[ResourceContainer]:
        self._ensure_head()
        if self._head is None:
            return None
        return self._head[1]

    def scheduler_priority(self) -> Optional[int]:
        """Best priority among live containers with packets waiting
        behind the head, or None when none waits.

        A destroyed container's stranded packets lend it no priority;
        they are discarded at the next head selection.
        """
        memo = self._waiting
        if memo[0] != self._version or memo[1] != hierarchy_epoch():
            memo = self._waiting_memo()
        return memo[2]

    def _waiting_memo(self) -> tuple:
        """Recompute ``_waiting``: (version, epoch, best priority among
        the live waiting containers, or None).

        Readers recompute only when its stamp moved: every queue
        mutation bumps ``_version``, and destroying a container or
        replacing its attributes bumps the hierarchy epoch, so the memo
        is exact.
        """
        best = None
        for container in self._containers.values():
            if container.alive:
                priority = container.attrs.numeric_priority
                if best is None or priority > best:
                    best = priority
        memo = (self._version, hierarchy_epoch(), best)
        self._waiting = memo
        return memo

    # ------------------------------------------------------------------
    # Work protocol (driven by the CPU dispatcher)
    # ------------------------------------------------------------------

    def work_remaining_us(self) -> float:
        """CPU still needed to finish the current head packet."""
        self._ensure_head()
        if self._head is None:
            return 0.0
        return self._head[3]

    def advance(self, us: float) -> bool:
        """Consume CPU toward the head packet; True when it completes."""
        self._ensure_head()
        if self._head is None:
            return False
        self._head_started = True
        key, container, packet, remaining = self._head
        remaining -= us
        if remaining <= 1e-9:
            self._head = (key, container, packet, 0.0)
            return True
        self._head = (key, container, packet, remaining)
        return False

    def profile_phase(self) -> str:
        """Profiler label: protocol processing of the head packet's kind.

        Only called when tracing is active (see ``CPU._phase_of``).
        """
        if self._head is not None:
            return f"proto.{self._head[2].kind.value}"
        return "proto"

    def take_completed(self) -> tuple[ResourceContainer, Packet]:
        """Pop the finished head packet for semantic processing."""
        if self._head is None or self._head[3] > 1e-9:
            raise RuntimeError("no completed packet at netthread head")
        _key, container, packet, _ = self._head
        self._head = None
        self._head_started = False
        self.stats_processed += 1
        return container, packet

    def _ensure_head(self) -> None:
        """Select the next packet: highest container priority, then FIFO.

        An un-started head is displaced if strictly higher-priority
        traffic has arrived since it was tentatively selected (the best
        waiting priority is :meth:`scheduler_priority`), and is
        discarded if its container has died since, as the container's
        waiting packets are; once protocol processing has consumed CPU,
        the packet completes.
        """
        head = self._head
        if head is not None:
            if self._head_started:
                return
            container = head[1]
            if container.alive:
                best_waiting = self.scheduler_priority()
                if (
                    best_waiting is None
                    or best_waiting <= container.attrs.numeric_priority
                ):
                    return
                # Push the tentative head back and re-select.
                key, _container, packet, cost = head
                queue = self._queues.get(key)
                if queue is None:
                    # Its queue emptied when the head was taken, and no
                    # packet arrived since: the key charged ``container``.
                    queue = self._queues[key] = deque()
                    self._containers[key] = container
                queue.appendleft((packet, cost))
                self._version += 1
            self._head = None  # displaced, or dropped with its dead container
        best_queue_key: Optional[object] = None
        best_order: Optional[tuple] = None
        dead: Optional[list] = None
        queues = self._queues
        containers = self._containers
        for key, queue in queues.items():
            container = containers[key]
            if not container.alive:
                # Container died with packets queued; discard them.
                if dead is None:
                    dead = []
                dead.append(key)
                continue
            packet, _cost = queue[0]
            order = (-container.attrs.numeric_priority, packet.seq)
            if best_order is None or order < best_order:
                best_order = order
                best_queue_key = key
        if dead is not None:
            for key in dead:
                del queues[key]
                del containers[key]
            self._version += 1
        if best_queue_key is None:
            return
        container = containers[best_queue_key]
        queue = queues[best_queue_key]
        packet, cost = queue.popleft()
        if not queue:
            del queues[best_queue_key]
            del containers[best_queue_key]
        self._version += 1
        self._head = (best_queue_key, container, packet, cost)
        self._head_started = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelNetThread({self.process.name!r}, pending={self.pending_packets()})"


def protocol_cost(kernel: "Kernel", packet: Packet) -> float:
    """Protocol-processing CPU cost for one inbound packet."""
    costs = kernel.costs
    if packet.kind is PacketKind.SYN:
        return costs.proto_syn
    if packet.kind is PacketKind.HANDSHAKE_ACK:
        return costs.proto_established
    if packet.kind is PacketKind.DATA:
        return costs.proto_rx_segment
    if packet.kind is PacketKind.FIN:
        return costs.proto_fin
    raise ValueError(f"unknown packet kind: {packet.kind}")
