"""The reference container scheduler, and the schedulable fakes tests run.

:class:`ReferenceScheduler` is the policy of
:mod:`repro.sched.container_sched` written straight from the three-level
key in that module's docstring, and nothing else:

1. strict numeric-priority layers: the max priority over the entity's
   scheduler binding, else its charge container's (charge-nobody work
   sits in layer 1);
2. stride over top-level groups: the smallest pass runs, a charge
   advances the charged group's pass by charge / weight, and the
   winner's group is clamped up to the global virtual time, which then
   follows it (charge-nobody work uses the virtual time as its pass);
3. least-recently-ran within a group: the pick stamp, then attach order;

and window caps: an entity whose charge container, or any ancestor of
it, has used ``cpu_limit * window_us`` in this window is not eligible.
Nor is an entity that charges nobody and, asked again after
``charge_container()``, is no longer runnable: a kernel net thread whose
only packets belonged to a destroyed container discards them there and
has no work left.

It holds no index, epoch, memo or ready set.  Every pick scans every
attached entity and derives everything fresh: the top-level group with
:func:`~repro.core.hierarchy.top_level_of`, the combined priority, the
group weight from the root's children, and caps by walking
:func:`~repro.core.hierarchy.ancestors_and_self`.  ``window_roll``
resets every container under the root.  With one CPU that is the whole
scheduler, and it reads nothing from ``ContainerScheduler``: plugged
into a kernel through ``KernelConfig.scheduler_factory`` it reproduces
the seeded schedule digest of ``tests/sched/test_trace_digest.py``.

SMP: the per-core rule
----------------------
With ``n_cpus > 1`` a core applies this rule:

* it considers every volatile entity (``sched_push_notify`` False: kernel
  net threads) plus the push-notify entities queued on its own shard;
* it steals from another shard only from a layer strictly above its own
  best candidate, or from any layer when it has no candidate;
* victims are scanned by load (queued + active) descending, then index,
  and it takes the best entity of the first victim holding an eligible
  entity in the highest such layer.  Each such pick counts in
  ``steals``.

Placement (each queued entity's home shard) and victim load are
*inputs*, read from the production scheduler passed as ``placement``.
A scan cannot define them more simply than ``ContainerScheduler._place``:

* ``queued_on`` counts lazily retired entries: the dispatcher re-queues
  an entity in ``on_slice_end`` before the thread advances and blocks,
  and the dead entry stays counted until a pick surfaces it;
* an index rebuild re-places every queued entity.

They are read only after calling production's ``_sync_epoch()``, so a
pending rebuild has already re-placed everything; the oracle must
therefore pick before production does on the same state.  A running
entity is never a candidate: the dispatcher's ``exclude`` set (the
running entities) guards it, and the oracle keeps no dequeued set.

Kernel contracts
----------------
The oracle and production agree on every state the kernel can reach.
The fuzz world in ``tests/sched/test_oracle.py`` keeps the kernel's
contracts, as the fakes below allow:

* a queued push-notify entity blocks only right after its
  ``on_slice_end``, as the dispatcher does;
* making any entity runnable calls ``on_wakeup``;
* a rebind fires the change hook (``sched_note_change``);
* a container is released only when no push-notify fake is bound to
  it, as the reference count guarantees; a volatile fake's container
  may die under it, as a net thread's may with packets queued.

States outside those contracts (a group destroyed under a queued,
reference-less fake, say) are not fuzzed; scripted tests pin them.
"""

from __future__ import annotations

from typing import Optional

from repro.core.binding import SchedulerBinding
from repro.core.hierarchy import ancestors_and_self, iter_subtree, top_level_of
from repro.sched.base import Scheduler


class ReferenceScheduler(Scheduler):
    """Scan-everything container scheduler (see module docstring)."""

    policy_name = "reference"

    def __init__(
        self,
        root,
        quantum_us: float = 1_000.0,
        window_us: float = 10_000.0,
        n_cpus: int = 1,
        placement=None,
    ) -> None:
        super().__init__()
        if n_cpus > 1 and placement is None:
            raise ValueError("an SMP oracle reads placement from production")
        self.root = root
        self.quantum_us = quantum_us
        self.window_us = window_us
        self.n_cpus = n_cpus
        self.placement = placement
        self.steals = 0
        self._vtime = 0.0
        #: top-level group cid -> stride pass.
        self._pass: dict[int, float] = {}
        self._picks = 0
        self._last_ran: dict[int, int] = {}
        self._attached = 0
        self._order: dict[int, int] = {}

    def on_attach(self, entity) -> None:
        self._attached += 1
        self._order[id(entity)] = self._attached
        self._last_ran[id(entity)] = 0

    def capped_out(self, container) -> bool:
        for node in ancestors_and_self(container):
            limit = node.attrs.cpu_limit
            if limit is not None and node.window_usage_us >= limit * self.window_us:
                return True
        return False

    def slice_bound_us(self, container) -> float:
        bound = float("inf")
        if container is not None:
            for node in ancestors_and_self(container):
                if node.attrs.cpu_limit is not None:
                    remaining = (
                        node.attrs.cpu_limit * self.window_us - node.window_usage_us
                    )
                    bound = min(bound, max(remaining, 0.0))
        return bound

    def window_roll(self, now: float) -> None:
        for node in iter_subtree(self.root):
            node.reset_window()

    def group_weight(self, group) -> float:
        if group.attrs.fixed_share is not None:
            return group.attrs.fixed_share
        siblings = self.root.children
        fixed_total = sum(
            c.attrs.fixed_share for c in siblings if c.attrs.fixed_share is not None
        )
        ts_total = sum(
            c.attrs.timeshare_weight for c in siblings if c.attrs.fixed_share is None
        )
        if ts_total <= 0.0:
            return 1e-9
        residual = max(1e-6, 1.0 - min(fixed_total, 1.0))
        return residual * group.attrs.timeshare_weight / ts_total

    def charge(self, entity, container, amount_us: float, now: float) -> None:
        if amount_us <= 0.0 or container is None:
            return
        self.note_charge(container, amount_us, now)
        group = top_level_of(container)
        weight = max(self.group_weight(group), 1e-9)
        self._pass[group.cid] = self._pass.get(group.cid, 0.0) + amount_us / weight

    def _candidate(self, entity) -> Optional[tuple]:
        """(key, group) of an eligible entity, or None if capped out."""
        eid = id(entity)
        stamp = (self._last_ran[eid], self._order[eid])
        container = entity.charge_container()
        if container is None:
            if not entity.runnable:
                return None
            return (-1, self._vtime) + stamp, None
        if self.capped_out(container):
            return None
        group = top_level_of(container)
        priority = entity.scheduler_priority()
        if priority is None:
            priority = container.attrs.numeric_priority
        return (-priority, self._pass.get(group.cid, 0.0)) + stamp, group

    def pick_for_cpu(self, now: float, cpu: int, exclude: Optional[set] = None):
        homes = loads = None
        if self.n_cpus > 1:
            production = self.placement
            production._sync_epoch()
            homes = production._home
            loads = [
                production.queued_on(i) + production._active_count[i]
                for i in range(self.n_cpus)
            ]
        best = None
        away: dict[int, list] = {}  # home shard -> candidates queued there
        for eid, entity in self._entities.items():
            if not entity.runnable or (exclude is not None and eid in exclude):
                continue
            found = self._candidate(entity)
            if found is None:
                continue
            candidate = found + (entity,)
            home = cpu
            if homes is not None and entity.sched_push_notify:
                home = homes[eid]
            if home != cpu:
                away.setdefault(home, []).append(candidate)
            elif best is None or candidate[0] < best[0]:
                best = candidate
        # Keys lead with -priority: a smaller head is a higher layer.
        above = [
            c[0][0]
            for queued in away.values()
            for c in queued
            if best is None or c[0][0] < best[0][0]
        ]
        if above:
            layer = min(above)
            for victim in sorted(away, key=lambda i: (-loads[i], i)):
                here = [c for c in away[victim] if c[0][0] == layer]
                if here:
                    best = min(here, key=lambda c: c[0])
                    self.steals += 1
                    break
        if best is None:
            return None
        _key, group, entity = best
        self._picks += 1
        self._last_ran[id(entity)] = self._picks
        if group is not None:
            clamped = max(self._pass.get(group.cid, 0.0), self._vtime)
            self._pass[group.cid] = self._vtime = clamped
        return entity


class VolatileFake:
    """Schedulable without the push-notify contract, like a kernel net
    thread: its container may change silently between picks (None
    charges nobody); ``sched_containers`` overrides its binding set.

    It holds no reference on its container, as a net thread's queued
    packets hold none: once the container is destroyed,
    ``charge_container()`` discards the work (counted in ``stranded``),
    returns None and leaves the fake not runnable."""

    sched_push_notify = False

    def __init__(self, name, container, sched_containers=None):
        self.name = name
        self.container = container
        self.sched_containers = sched_containers
        self.runnable = True
        self.stranded = 0

    def charge_container(self):
        container = self.container
        if container is not None and not container.alive:
            self.container = None
            self.runnable = False
            self.stranded += 1
        return self.container

    def scheduler_priority(self):
        members = self.sched_containers
        if members is None:
            members = [self.container] if self.container is not None else []
        return max((c.attrs.numeric_priority for c in members), default=None)


class IndexedFake:
    """Push-notify schedulable, like a user thread: a rebind fires the
    change hook the scheduler installs."""

    sched_push_notify = True

    def __init__(self, name, container):
        self.name = name
        self._container = container
        self.runnable = True
        self.sched_note_change = None

    @property
    def container(self):
        return self._container

    @container.setter
    def container(self, value):
        changed = value is not self._container
        self._container = value
        if changed and self.sched_note_change is not None:
            self.sched_note_change()

    def charge_container(self):
        return self._container

    def scheduler_priority(self):
        container = self._container
        return container.attrs.numeric_priority if container is not None else None


class BoundFake(IndexedFake):
    """Push-notify schedulable whose priority comes from a real scheduler
    binding (section 4.3): the max over its live members."""

    def __init__(self, name, container):
        super().__init__(name, container)
        self.scheduler_binding = SchedulerBinding()
        self.scheduler_binding.observe(container, 0.0)

    def scheduler_priority(self):
        return self.scheduler_binding.combined_priority()


def run(sched, steps: int, start: float = 0.0) -> dict[str, float]:
    """Pick, charge and hand back on CPU 0 for ``steps`` quanta, rolling
    the window at its boundaries; CPU µs per attached entity's name."""
    quantum = sched.quantum_us
    usage = {entity.name: 0.0 for entity in sched.entities()}
    now = start
    for _ in range(steps):
        entity = sched.pick_for_cpu(now, 0)
        if entity is not None:
            container = entity.charge_container()
            if container is not None:
                container.charge_cpu(quantum)
            sched.charge(entity, container, quantum, now)
            sched.on_slice_end(entity, now)
            usage[entity.name] += quantum
        now += quantum
        if now % sched.window_us < quantum:
            sched.window_roll(now)
    return usage
