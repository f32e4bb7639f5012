"""I/O schedulers: pick which queued disk request is serviced next.

The disk analogue of ``repro.sched``.  The device owns exactly one
request in service; whenever it goes idle it asks its scheduler for the
next request.  Two disciplines are provided:

* :class:`FifoIOScheduler` — the classic elevator-less baseline: strict
  arrival order, no notion of principal.  A container that floods the
  queue starves everyone behind it (this is what ``fig_disk_isolation``
  demonstrates).
* :class:`WeightedFairIOScheduler` — start-time fair queueing over
  *per-container* request queues, reusing the pass/virtual-time state
  of the CPU scheduler (``repro.sched.state.SchedulerNodeState``).
  Every request is tagged **once, at arrival**, with a virtual start
  tag ``max(vtime, flow.last_finish)`` and finish tag
  ``start + service_us / weight``; dispatch picks the minimum finish
  tag, and virtual time ratchets up to the *start* tag of the
  dispatched request.  Each half of that rule earns its keep:

  - Tags frozen at arrival make the discipline starvation-free — a
    backlogged flow's tags are fixed points virtual time must pass,
    whereas re-clamping a flow's start to vtime at every dispatch
    would let a lighter flow ride vtime forever behind a heavier one.
  - Advancing vtime to the dispatched *start* (not finish) tag keeps
    a low-rate high-weight flow's latency bounded by one residual
    service.  Closed-loop antagonists arrive in synchronized waves
    that share one finish tag; if vtime jumped to that finish tag,
    a premium arrival at ``vtime + stride`` would land *past* the
    whole wave and wait out the round.  Anchored at the wave's start,
    the premium finish tag undercuts the wave no matter how deep the
    antagonists' backlogs are.
  - The ``max(vtime, ...)`` arrival clamp means a flow waking from
    idle cannot bank credit, yet competes immediately.

Flows are the *charging* containers of the requests (the leaf the read
was billed to), matching how ``disk_us`` is ledgered.  Weights come from
container attributes: time-share containers use ``timeshare_weight``;
fixed-share containers use ``fixed_share`` scaled by
:data:`FIXED_SHARE_WEIGHT_SCALE` so a full-machine guarantee outweighs a
default time-share flow.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.attributes import SchedClass
from repro.sched.state import SchedulerNodeState

if TYPE_CHECKING:
    from repro.core.container import ResourceContainer
    from repro.io.device import DiskRequest

#: Disk weight of a fixed-share container per unit of CPU share: a
#: ``fixed_share=1.0`` container weighs twice a default (weight 1.0)
#: time-share flow.
FIXED_SHARE_WEIGHT_SCALE = 2.0

#: Flow id used for requests with no charging container.
_SYSTEM_FLOW = 0


def weight_of(container: "Optional[ResourceContainer]") -> float:
    """Disk-scheduling weight of a request's charging container."""
    if container is None:
        return 1.0
    attrs = container.attrs
    if attrs.sched_class is SchedClass.FIXED_SHARE:
        return max(attrs.fixed_share or 0.0, 1e-6) * FIXED_SHARE_WEIGHT_SCALE
    return attrs.timeshare_weight


class IOScheduler:
    """Queueing discipline for a :class:`repro.io.device.DiskDevice`.

    The device calls ``add`` when a request arrives, ``pop`` when it
    goes idle (returning None if nothing is queued), and ``charge`` when
    a request's service completes (with ``request.service_us`` filled
    in), letting stateful disciplines advance their accounting.
    """

    name = "abstract"

    def add(self, request: "DiskRequest", now: float) -> None:
        raise NotImplementedError

    def pop(self, now: float) -> "Optional[DiskRequest]":
        raise NotImplementedError

    def charge(self, request: "DiskRequest", now: float) -> None:
        """Account a completed request (no-op for stateless disciplines)."""

    def __len__(self) -> int:
        raise NotImplementedError


class FifoIOScheduler(IOScheduler):
    """Strict arrival order; the principal-blind baseline."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: "deque[DiskRequest]" = deque()

    def add(self, request: "DiskRequest", now: float) -> None:
        self._queue.append(request)

    def pop(self, now: float) -> "Optional[DiskRequest]":
        if not self._queue:
            return None
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class WeightedFairIOScheduler(IOScheduler):
    """Container-weighted fair queueing (min virtual finish tag).

    Per-flow state lives in this scheduler (``SchedulerNodeState`` keyed
    by container id, its ``pass_value`` holding the flow's last assigned
    finish tag), *not* on the container's CPU ``sched_state`` — disk and
    CPU virtual times advance at unrelated rates and must not mix.  All
    accounting happens at arrival (tags are frozen then), so ``charge``
    is the base no-op.  Each backlogged flow's queue head is mirrored as
    a ``(finish tag, arrival seq, flow)`` key in ``_heads``, and
    dispatch takes the smallest: ties on the finish tag go to the
    earlier arrival, and since arrival sequences are unique the flow id
    is never compared, so dispatch is deterministic.
    """

    name = "wfq"

    def __init__(self) -> None:
        #: flow id -> FIFO of (start tag, finish tag, request); tags are
        #: per-flow monotone, so each deque's head is its flow's minimum.
        self._queues: "dict[int, deque[tuple[float, float, DiskRequest]]]" = {}
        #: flow id -> (finish tag, arrival seq, flow id) of its queue's
        #: head, for every non-empty queue.
        self._heads: dict[int, tuple[float, int, int]] = {}
        #: flow id -> stride state; pass_value = last assigned finish
        #: tag (persists across idle so a returning flow cannot re-use
        #: virtual time it already consumed).
        self._states: dict[int, SchedulerNodeState] = {}
        #: flow id -> weight, refreshed on every arrival.
        self._weights: dict[int, float] = {}
        #: Virtual time: start tag of the most recently dispatched
        #: request, ratcheted monotone.
        self._vtime = 0.0
        self._size = 0

    def _flow_id(self, container: "Optional[ResourceContainer]") -> int:
        return _SYSTEM_FLOW if container is None else container.cid

    def add(self, request: "DiskRequest", now: float) -> None:
        flow = self._flow_id(request.container)
        queue = self._queues.get(flow)
        if queue is None:
            queue = self._queues[flow] = deque()
        state = self._states.get(flow)
        if state is None:
            state = self._states[flow] = SchedulerNodeState()
            state.pass_value = self._vtime
        weight = weight_of(request.container)
        self._weights[flow] = weight
        # SCFQ arrival tagging: start where the flow's previous request
        # virtually finished, but never before the current virtual time
        # (the idle-waker clamp: no banked credit from sitting out).
        start_tag = max(state.pass_value, self._vtime)
        finish_tag = start_tag + request.service_us / weight
        state.pass_value = finish_tag
        if not queue:
            self._heads[flow] = (finish_tag, request.seq, flow)
        queue.append((start_tag, finish_tag, request))
        self._size += 1

    def pop(self, now: float) -> "Optional[DiskRequest]":
        heads = self._heads
        if not heads:
            return None
        _finish, _seq, flow = min(heads.values())
        queue = self._queues[flow]
        start_tag, _finish, request = queue.popleft()
        if start_tag > self._vtime:
            self._vtime = start_tag
        self._size -= 1
        if queue:
            _start, finish_tag, head = queue[0]
            heads[flow] = (finish_tag, head.seq, flow)
        else:
            del heads[flow]
            del self._queues[flow]
        return request

    def __len__(self) -> int:
        return self._size


def make_io_scheduler(name: str) -> IOScheduler:
    """Instantiate an I/O scheduler by configuration name."""
    if name == "fifo":
        return FifoIOScheduler()
    if name in ("wfq", "fair"):
        return WeightedFairIOScheduler()
    raise ValueError(f"unknown io_scheduler {name!r} (expected fifo|wfq)")
