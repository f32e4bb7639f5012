"""The prototype's multi-level container scheduler (paper section 5.1).

Selection is a three-level key:

1. **Numeric-priority layer** (strict).  The combined numeric priority
   of an entity's scheduler binding (section 4.3) forms strict layers:
   a priority-zero container -- the paper's denial-of-service defence
   value -- is serviced only when nothing with positive priority is
   runnable.  Layers are strict *machine-wide*: a core whose local
   queue holds only low-priority work steals from a core holding
   higher-priority work before running it.
2. **Top-level group stride.**  Within a layer, the children of the
   root container form scheduling groups weighted by their fixed-share
   guarantee (time-share groups split the residual weight).  The
   eligible group with the smallest *pass* value runs and its pass
   advances by charge/weight -- stride scheduling, which delivers exact
   proportional shares under saturation (the section 5.8 property).  A
   group that wakes from idleness has its pass clamped up to the global
   virtual time so it cannot monopolise the CPU while it "catches up".
   Pass values and the virtual time are *global* (shared by all CPUs),
   so proportional shares hold machine-wide even though each core picks
   from its own shard.
3. **Round-robin within a group.**  Entities take turns by
   least-recently-ran order, so a thread that blocks often (an
   event-driven server) is never starved by CPU-bound peers (CGI
   children) sharing its group, regardless of how much it consumed in
   other groups earlier in its life.

Hard CPU limits (``cpu_limit``) are enforced with accounting windows: a
container subtree that has consumed ``limit * window`` within the
current window is *capped out*, and entities that would charge it are
throttled until the window rolls.  Window accounting is global, so caps
bind machine-wide regardless of which cores a container's threads run
on; as a placement policy, threads of a capped group are additionally
kept co-located on one shard (see ``_place``).

Data structures (see docs/ARCHITECTURE.md and docs/SMP.md)
----------------------------------------------------------

``pick_for_cpu()`` is index-driven, not scan-driven.  The ready index
is sharded per CPU (:class:`_ReadyShard`): entities that honour the
push-notification contract (``sched_push_notify``; user threads and
benchmark entities) live in per-``(priority, group)`` *ready buckets*
-- heaps ordered by the round-robin key ``(last-ran stamp, attach
order)`` -- and, per priority layer, a *group heap* orders the
non-empty buckets by ``(group pass, head stamp, head order)``.  A pick
walks the core's own shard highest-priority-first, pops
lazily-invalidated heap entries until the top entry matches current
state, and dequeues its bucket head: the winner leaves the index while
it runs (dequeue-on-dispatch) and is re-queued by ``on_slice_end``, so
cores never re-filter each other's running entities.  A per-priority
live-entry count lets an idle (or out-ranked) core detect work on
other shards and *steal* it -- migrating the entity's home shard --
in deterministic richest-victim-first order.

Entities without the contract (kernel net threads, whose key follows
their head packet) are *volatile*: their key is evaluated at pick time,
never indexed, so the dispatcher's exclude-set still guards them.  They
owe the scheduler a lighter contract instead: whoever makes one
runnable calls :meth:`on_wakeup` (``Kernel`` does so after every
successful net-thread enqueue).  The wakeups feed a *ready set*, a
superset of the runnable volatiles; each pick evaluates only its
members, with the original linear logic and under the exact same key as
the indexed candidate, and drops the members it finds not runnable once
the loop is done.  Since only a wakeup may make a volatile runnable,
every pick still evaluates exactly the entities a full scan would (with
the same side effects), and pick cost follows runnable work rather than
attached entities.

The paper's servers are one event-driven process, or one per processor
(section 2), so the index usually holds one live entry or none.  The
one-entry index is a slot: an insert into an empty index (a slice end,
a wakeup, an attach, a rebuild) *parks* the entity in ``_parked``
instead, homed on the shard :meth:`_place` chooses at that moment.  A
rebind re-keys it in place; a detach, or a rebind while it is blocked,
retires it there.  A pick on the home core, while that shard is clean,
scans the ready volatiles as always and fuses "insert, then pick"
(:meth:`_pick_parked`), skipping the index round trip: it weighs the
winner against the best volatile as the walk would.  When a volatile
wins, the winner stays parked: it is queued virtually and nothing in
the index moved.  Every other path that reads or writes the index
unparks it first (:meth:`_unpark`, onto the home recorded at park
time), so each sees the index it would have seen: a capped or excluded
winner takes the full pick, and so does a pick on any other core, which
steals it exactly as it steals an index entry.  One live entry has no
path of its own: a lone entry a walk left behind takes the walk.  Both
paths are fuzzed against ``tests/sched/oracle.py``, a scan-everything
reference scheduler written from the key above; it also reproduces the
seeded schedule digest when the kernel runs it in place of this class.

Stale index entries are never searched for.  Mutations that can move an
*existing* entity's placement key (reparent, attribute replacement)
bump the global hierarchy *shape* epoch and the scheduler rebuilds its
index on the next entry point; creating a container or destroying a
leaf (per-request principal churn) bumps only the full epoch, which
flushes the memoized group weights and entity keys but leaves the ready
shards and hierarchy memos intact.  A shape bump always moves the full
epoch too, so :meth:`_sync_epoch` guards both tiers with one integer
compare.  Each indexed entity's ``(priority, gkey, group)`` is memoized
between its change notifications, so re-queueing it after a slice does
not re-derive it.  Bucket and heap entries are validated when they
surface (lazy deletion); ineligible candidates (capped out, or excluded
volatiles) are set aside and re-queued after the pick.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.core.container import ResourceContainer, hierarchy_epoch
from repro.core.hierarchy import HierarchyCache
from repro.sched.base import Schedulable, Scheduler
from repro.sched.state import SchedulerNodeState


def _node_state(container: ResourceContainer) -> SchedulerNodeState:
    state = container.sched_state
    if state is None:
        state = SchedulerNodeState()
        container.sched_state = state
    return state


#: :meth:`ContainerScheduler._pick_parked`'s "unpark, take the full pick".
_FULL_PICK = object()


class _ReadyShard:
    """One CPU's slice of the ready index (see module docstring)."""

    __slots__ = ("index", "buckets", "layer_heaps", "gpos", "queued")

    def __init__(self, index: int) -> None:
        self.index = index
        #: (priority, gkey) -> heap of (stamp, order, eid).  gkey is the
        #: top-level group's cid, or None for charge-nobody entities.
        self.buckets: dict[tuple, list] = {}
        #: priority -> heap of (pass, head_stamp, head_order, gkey);
        #: entries are snapshots, lazily corrected as they surface.
        self.layer_heaps: dict[int, list] = {}
        #: (priority, gkey) -> the group's single *live* heap entry.
        #: Surfacing entries that don't match are dead and dropped, so
        #: the heap stays O(groups) instead of accreting snapshots.
        self.gpos: dict[tuple, tuple] = {}
        #: Live index entries homed here (load-balancing signal).
        self.queued = 0


def _clear_shard(shard: _ReadyShard) -> None:
    """Drop every heap entry on a shard that holds no live entry."""
    shard.buckets.clear()
    shard.layer_heaps.clear()
    shard.gpos.clear()


class ContainerScheduler(Scheduler):
    """Hierarchical fixed-share + time-share scheduler over containers."""

    policy_name = "container"

    def __init__(
        self,
        root: ResourceContainer,
        quantum_us: float = 1_000.0,
        window_us: float = 10_000.0,
        n_cpus: int = 1,
    ) -> None:
        super().__init__()
        self.root = root
        self.quantum_us = quantum_us
        self.window_us = window_us
        if n_cpus < 1:
            raise ValueError(f"need at least one CPU, got {n_cpus}")
        self.n_cpus = n_cpus
        #: Global group virtual time: groups waking from idleness are
        #: clamped to this so stale passes cannot monopolise the CPU.
        self._group_vtime = 0.0
        #: Monotonic pick counter; per-entity last-ran stamps implement
        #: least-recently-ran round-robin within a group.
        self._pick_seq = 0
        self._last_ran: dict[int, int] = {}
        #: Deterministic attach-order index used for tie-breaking (object
        #: ids vary between runs and would break replayability).
        self._attach_seq = 0
        self._order: dict[int, int] = {}
        self.window_rolls = 0
        #: Cross-shard migrations performed by idle/out-ranked cores.
        self.steals = 0
        # -- indexed fast-path state (see module docstring) -------------
        self._hcache = HierarchyCache()
        #: gid -> memoized top-level weight (flushed with the epoch).
        self._weights: dict[int, float] = {}
        #: Full-epoch stamp guarding ``_weights``, ``_wtotals``,
        #: ``_parts`` and (since every shape bump is also a full bump)
        #: the shape-guarded ``_hcache`` and ready index.
        self._epoch = hierarchy_epoch()
        #: Memoized (fixed_total, ts_total) over the root's children, so
        #: a weight fill is O(1) instead of O(siblings) per group.
        self._wtotals: Optional[tuple] = None
        #: id(entity) -> memoized ``_entity_parts`` of a push-notify
        #: entity; dropped on its change notification and detach, and
        #: flushed whole with the full epoch (which also covers a
        #: binding member dying: ``members()`` drops it silently).
        self._parts: dict[int, tuple] = {}
        #: id(entity) -> entity for volatile (non-push-notify) entities
        #: that may be runnable; fed by attach and :meth:`on_wakeup`,
        #: pruned lazily by :meth:`pick_for_cpu`.
        self._ready: dict[int, Schedulable] = {}
        #: id(entity) -> (cpu, priority, gkey, stamp) of its live bucket
        #: entry; absent when the entity has no valid entry.  Bucket
        #: entries not matching this are stale and dropped when surfaced.
        self._pos: dict[int, tuple] = {}
        #: One ready shard per CPU.
        self._shards = [_ReadyShard(i) for i in range(self.n_cpus)]
        #: gkey -> group container for entries in the index.
        self._groups: dict[int, ResourceContainer] = {}
        #: id(entity) -> preferred shard (sticky affinity).
        self._home: dict[int, int] = {}
        #: id(entity) -> cpu, while dequeued by :meth:`pick_for_cpu`.
        self._active: dict[int, int] = {}
        #: Per-cpu count of active (dequeued, running) entities.
        self._active_count = [0] * self.n_cpus
        #: priority -> number of live index entries across all shards;
        #: lets a core detect higher-priority work on other shards
        #: without scanning them.
        self._layer_counts: dict[int, int] = {}
        #: gkey -> pinned shard for capped groups (kept co-located).
        self._group_home: dict[int, int] = {}
        #: The parked winner: the lone indexed entity, held out of an
        #: otherwise empty index and homed on ``_home``'s shard; see
        #: :meth:`_index_insert`, :meth:`_pick_parked` and :meth:`_unpark`.
        self._parked: Optional[Schedulable] = None
        # That makes 29 instance attributes with the kernel's ``trace``,
        # CPython 3.11's inline-values limit (pinned on a live kernel by
        # tests/kernel/test_instance_layout.py): fold new state into an
        # existing field instead.

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def on_attach(self, entity: Schedulable) -> None:
        eid = id(entity)
        self._last_ran[eid] = 0
        self._attach_seq += 1
        self._order[eid] = self._attach_seq
        if entity.sched_push_notify:
            self._install_hooks(entity)
            self._sync_epoch()  # may already index us via a rebuild
            if (
                entity.runnable
                and self._pos.get(eid) is None
                and entity is not self._parked  # the rebuild parked it
            ):
                self._index_insert(entity)
        elif entity.runnable:
            self._ready[eid] = entity

    def detach(self, entity: Schedulable) -> None:
        if self._parked is entity:
            self._parked = None  # retired where it parked
        super().detach(entity)
        eid = id(entity)
        self._last_ran.pop(eid, None)
        self._order.pop(eid, None)
        self._parts.pop(eid, None)
        self._pos_drop(eid)
        self._home.pop(eid, None)
        cpu = self._active.pop(eid, None)
        if cpu is not None:
            self._active_count[cpu] -= 1
        self._ready.pop(eid, None)
        if entity.sched_push_notify:
            self._remove_hooks(entity)

    def _install_hooks(self, entity: Schedulable) -> None:
        def note(entity=entity):
            self._note_entity_change(entity)

        if hasattr(entity, "sched_note_change"):
            entity.sched_note_change = note
        binding = getattr(entity, "scheduler_binding", None)
        if binding is not None and hasattr(binding, "on_change"):
            binding.on_change = note

    def _remove_hooks(self, entity: Schedulable) -> None:
        if getattr(entity, "sched_note_change", None) is not None:
            entity.sched_note_change = None
        binding = getattr(entity, "scheduler_binding", None)
        if binding is not None and getattr(binding, "on_change", None) is not None:
            binding.on_change = None

    def note_container_destroyed(self, container: ResourceContainer) -> None:
        """Manager ``on_destroy`` hook: evict the dead container's
        memos so leaf churn cannot accrete entries between rebuilds."""
        if self._parked is not None:
            self._unpark()
        cid = container.cid
        self._groups.pop(cid, None)
        self._weights.pop(cid, None)
        self._group_home.pop(cid, None)
        self._hcache.forget(cid)

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------

    def _sync_epoch(self) -> None:
        """Flush epoch-guarded caches after a hierarchy mutation.

        Two tiers: *any* mutation (including container create/destroy)
        bumps the full epoch and flushes the memoized group weights and
        entity parts; only mutations that can move an existing entity's
        placement (reparent, attribute replacement) bump the shape epoch
        and force an index rebuild.  Per-request principal churn
        therefore costs a memo flush, not an O(n) rebuild.  A shape bump
        always moves the full epoch too, so the common case -- nothing
        changed -- is one integer compare.
        """
        epoch = hierarchy_epoch()
        if epoch == self._epoch:
            return
        if self._parked is not None:
            self._unpark()  # queued under the parts it was parked with
        self._epoch = epoch
        self._weights.clear()
        self._wtotals = None
        self._parts.clear()
        if self._hcache.check():
            self._rebuild_index()

    def _rebuild_index(self) -> None:
        for shard in self._shards:
            shard.buckets.clear()
            shard.layer_heaps.clear()
            shard.gpos.clear()
            shard.queued = 0
        self._pos.clear()
        self._groups.clear()
        self._layer_counts.clear()
        self._group_home.clear()
        active = self._active
        for entity in self._entities.values():
            if (
                entity.sched_push_notify
                and entity.runnable
                and id(entity) not in active
            ):
                self._index_insert(entity)

    def _pos_drop(self, eid: int) -> Optional[tuple]:
        """Retire the entity's live index entry (bookkeeping only; the
        heap tuple itself is dropped lazily when it surfaces)."""
        pos = self._pos.pop(eid, None)
        if pos is not None:
            self._shards[pos[0]].queued -= 1
            self._layer_counts[pos[1]] -= 1
        return pos

    def _entity_parts(self, entity: Schedulable):
        """(priority, gkey, group) the entity currently schedules under."""
        container = entity.charge_container()
        if container is None:
            return 1, None, None  # system work: normal layer, neutral pass
        group = self._hcache.top_level(container)
        return self._combined_priority(entity, container), group.cid, group

    def _place(self, eid: int, gkey, group) -> int:
        """Choose a shard for one entity (the container-aware balancer).

        Policy, in order: (1) threads of a *capped* group are pinned to
        one shard so the group's windowed cap drains predictably rather
        than bouncing its threads across cores; (2) sticky affinity --
        an entity stays on its previous home unless that shard is more
        than one unit busier than the lightest (load = queued entries +
        running entities); (3) otherwise the least-loaded shard, lowest
        index first, which is what spreads a fixed-share group's
        threads machine-wide so its share can exceed one core.
        """
        n = self.n_cpus
        if n == 1:
            return 0
        if group is not None and group.attrs.cpu_limit is not None:
            pinned = self._group_home.get(gkey)
            if pinned is None:
                pinned = self._group_home[gkey] = self._least_loaded()
            return pinned
        shards = self._shards
        active = self._active_count
        best = 0
        best_load = shards[0].queued + active[0]
        for i in range(1, n):
            load = shards[i].queued + active[i]
            if load < best_load:
                best = i
                best_load = load
        home = self._home.get(eid)
        if home is not None and home != best:
            if shards[home].queued + active[home] <= best_load + 1:
                return home
        return best

    def _least_loaded(self) -> int:
        shards = self._shards
        active = self._active_count
        best = 0
        best_load = shards[0].queued + active[0]
        for i in range(1, self.n_cpus):
            load = shards[i].queued + active[i]
            if load < best_load:
                best = i
                best_load = load
        return best

    def _index_insert(self, entity: Schedulable, cpu: Optional[int] = None) -> None:
        """Queue an entity holding no live entry on the shard
        :meth:`_place` chooses, or on ``cpu``'s when given
        (:meth:`_unpark`).  Into an empty index it parks instead, homed
        where it would have been queued."""
        eid = id(entity)
        if cpu is None and self._parked is not None:
            self._unpark()
        parts = self._parts.get(eid)
        if parts is None:
            parts = self._parts[eid] = self._entity_parts(entity)
        priority, gkey, group = parts
        if gkey is not None:
            self._groups[gkey] = group
        if cpu is None:
            cpu = self._home[eid] = self._place(eid, gkey, group)
            if not self._pos:
                self._parked = entity
                return
        shard = self._shards[cpu]
        bkey = (priority, gkey)
        bucket = shard.buckets.get(bkey)
        if bucket is None:
            bucket = shard.buckets[bkey] = []
        entry = (self._last_ran.get(eid, 0), self._order.get(eid, 0), eid)
        heapq.heappush(bucket, entry)
        self._pos[eid] = (cpu, priority, gkey, entry[0])
        shard.queued += 1
        self._layer_counts[priority] = self._layer_counts.get(priority, 0) + 1
        if gkey is not None and bucket[0] is entry:
            # The bucket head improved: the group's snapshots in the
            # layer heap understate nothing only if a fresh one is
            # pushed (passes only grow; heads may shrink right here).
            self._push_group_entry(shard, priority, gkey, group, bucket)

    def _push_group_entry(
        self,
        shard: _ReadyShard,
        priority: int,
        gkey: int,
        group: ResourceContainer,
        bucket: list,
    ) -> None:
        head = bucket[0]
        entry = (_node_state(group).pass_value, head[0], head[1], gkey)
        bkey = (priority, gkey)
        if shard.gpos.get(bkey) == entry:
            return  # the live entry already says exactly this
        shard.gpos[bkey] = entry  # the previous live entry is now dead
        heap = shard.layer_heaps.get(priority)
        if heap is None:
            heap = shard.layer_heaps[priority] = []
        heapq.heappush(heap, entry)

    def _note_entity_change(self, entity: Schedulable) -> None:
        """An indexed entity's key changed (rebind / binding-set change)."""
        eid = id(entity)
        if eid not in self._order:
            return
        self._sync_epoch()  # unparks first if the epoch moved
        parked = self._parked
        old = self._parts.pop(eid, None)
        if not entity.runnable:
            if parked is entity:
                self._parked = None  # retired where it parked
            self._pos_drop(eid)
            return
        if eid in self._active:
            return  # running: re-queued with fresh parts at slice end
        parts = self._parts[eid] = self._entity_parts(entity)
        priority, gkey, _group = parts
        if parked is entity:
            if old[0] == priority and old[1] == gkey:
                return  # placement unchanged; it stands where it parked
            self._parked = None  # re-parked below, placed afresh
        else:
            pos = self._pos.get(eid)
            if pos is not None and pos[1] == priority and pos[2] == gkey:
                return  # placement unchanged; the existing entry stands
            self._pos_drop(eid)  # superseded
        self._index_insert(entity)

    def on_wakeup(self, entity: Schedulable, now: float) -> None:
        eid = id(entity)
        if eid not in self._order:
            return
        if not entity.sched_push_notify:
            self._ready[eid] = entity  # its key is evaluated at pick time
            return
        self._sync_epoch()
        if (
            entity.runnable
            and eid not in self._active
            and self._pos.get(eid) is None
            and entity is not self._parked  # already queued, virtually
        ):
            self._index_insert(entity)

    # ------------------------------------------------------------------
    # Cap enforcement
    # ------------------------------------------------------------------

    def _capped(self, container: ResourceContainer) -> bool:
        for node in self._hcache.limit_chain(container):
            if node.window_usage_us >= node.attrs.cpu_limit * self.window_us:
                return True
        return False

    def capped_out(self, container: ResourceContainer) -> bool:
        """True if the container or any ancestor exhausted its window cap."""
        self._sync_epoch()
        return self._capped(container)

    def slice_bound_us(self, container: Optional[ResourceContainer]) -> float:
        """Remaining window budget along the charge container's ancestor
        chain, so one slice cannot overshoot a hard cap."""
        if container is None:
            return float("inf")
        self._sync_epoch()
        bound = float("inf")
        for node in self._hcache.limit_chain(container):
            remaining = node.attrs.cpu_limit * self.window_us - node.window_usage_us
            bound = min(bound, max(remaining, 0.0))
        return bound

    def window_roll(self, now: float) -> None:
        """Reset the window accumulators that were actually charged.

        ``ResourceContainer.charge_cpu`` registers every container whose
        accumulator left zero since the last roll, so an idle hierarchy
        (or the idle bulk of a large one) costs nothing here.  Nodes
        that were reparented out from under the root since they were
        charged are skipped, exactly as the old full-tree sweep from
        ``self.root`` never reached them.
        """
        self.window_rolls += 1
        registry = self.root.window_registry
        if registry:
            root = self.root
            for node in registry:
                top = node
                while top.parent is not None:
                    top = top.parent
                if top is root:
                    node.reset_window()
            registry.clear()

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------

    def group_weight(self, group: ResourceContainer) -> float:
        """Effective top-level weight of one child of the root (memoized).

        Fixed-share groups weigh exactly their guaranteed share;
        time-share groups split the residual (1 - sum of fixed shares)
        in proportion to their ``timeshare_weight``.  The sibling sums
        are memoized once per epoch (``_wtotals``), so a flush costs
        O(siblings) once instead of O(siblings) per group.
        """
        self._sync_epoch()
        weight = self._weights.get(group.cid)
        if weight is None:
            weight = self._compute_group_weight(group)
            self._weights[group.cid] = weight
        return weight

    def _weight_totals(self) -> tuple:
        totals = self._wtotals
        if totals is None:
            siblings = self.root.children
            fixed_total = sum(
                c.attrs.fixed_share
                for c in siblings
                if c.attrs.fixed_share is not None
            )
            ts_total = sum(
                c.attrs.timeshare_weight
                for c in siblings
                if c.attrs.fixed_share is None
            )
            totals = self._wtotals = (fixed_total, ts_total)
        return totals

    def _compute_group_weight(self, group: ResourceContainer) -> float:
        fixed_total, ts_total = self._weight_totals()
        if group.attrs.fixed_share is not None:
            return group.attrs.fixed_share
        residual = max(1e-6, 1.0 - min(fixed_total, 1.0))
        if ts_total <= 0.0:
            return 1e-9
        return residual * group.attrs.timeshare_weight / ts_total

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def pick_for_cpu(
        self, now: float, cpu: int, exclude: Optional[set] = None
    ) -> Optional[Schedulable]:
        self._sync_epoch()
        best_key = best = best_group = None
        if self._ready:
            best_key, best, best_group = self._ready_candidate(exclude)
        shard = self._shards[cpu]
        parked = self._parked
        if parked is not None:
            # On its home core with a clean shard (no dead entries; gpos
            # is empty whenever layer_heaps is), the pick would insert
            # the parked winner and find it alone.  Any other core
            # unparks it and takes the full pick, which steals it or not.
            if self._home[id(parked)] == cpu and not (
                shard.buckets or shard.layer_heaps
            ):
                picked = self._pick_parked(parked, cpu, exclude, best_key)
                if picked is None and best is not None:
                    self._stamp_win(best, best_group)  # a volatile's win
                    return best
                if picked is not _FULL_PICK:
                    return picked
            self._unpark()
        if not self._pos:
            if shard.buckets or shard.layer_heaps:
                _clear_shard(shard)  # nothing live anywhere
            if best is not None:
                self._stamp_win(best, best_group)  # a volatile's win
            return best
        deferred: list[tuple] = []
        best_bkey: Optional[tuple] = None
        best_shard: Optional[_ReadyShard] = None
        victim: Optional[int] = None
        candidate = self._indexed_candidate(shard, exclude, deferred, best_key)
        if candidate is not None:
            key, entity, group, bkey = candidate
            if best_key is None or key < best_key:
                best_key = key
                best = entity
                best_group = group
                best_bkey = bkey
                best_shard = shard
        if self.n_cpus > 1:
            stolen = self._steal_candidate(cpu, best_key, exclude, deferred)
            if stolen is not None:
                key, entity, group, bkey, vshard = stolen
                best_key = key
                best = entity
                best_group = group
                best_bkey = bkey
                best_shard = vshard
                victim = vshard.index

        if best is not None:
            self._pick_seq += 1
            eid = id(best)
            self._last_ran[eid] = self._pick_seq
            bucket = None
            if best_bkey is not None:
                self._pos_drop(eid)
                if self._pos:
                    bucket = best_shard.buckets[best_bkey]
                    heapq.heappop(bucket)  # the validated head == best
                else:
                    _clear_shard(best_shard)  # every entry left is dead
                # Dequeue-on-dispatch: the winner runs off-index.
                self._active[eid] = cpu
                self._active_count[cpu] += 1
                self._home[eid] = cpu
            if best_group is not None:
                state = _node_state(best_group)
                # Clamp a long-idle group up to the global virtual time.
                state.pass_value = max(state.pass_value, self._group_vtime)
                self._group_vtime = state.pass_value
            if best_bkey is not None:
                priority, gkey = best_bkey
                if gkey is not None and bucket:
                    # Refresh the group snapshot for the remaining head.
                    self._push_group_entry(
                        best_shard, priority, gkey, self._groups[gkey], bucket
                    )
                if victim is not None:
                    self.steals += 1
                    trace = self.trace
                    if trace is not None and trace.active:
                        container = best.charge_container()
                        trace.publish(
                            now,
                            "sched.steal",
                            core=cpu,
                            victim=victim,
                            entity=getattr(best, "name", ""),
                            container=(
                                container.name if container is not None else None
                            ),
                        )
        self._requeue_deferred(deferred)
        return best

    def on_slice_end(self, entity: Schedulable, now: float) -> None:
        """Re-queue an entity dequeued by :meth:`pick_for_cpu`.

        Called by the dispatcher after the slice's charge and before the
        entity advances its work state (and after zero-work actions).
        The round-robin stamp was already assigned at pick time, so the
        entity re-enters its bucket ordered by when it was picked, not
        by when its slice ended.
        """
        eid = id(entity)
        cpu = self._active.pop(eid, None)
        if cpu is not None:
            self._active_count[cpu] -= 1
        if eid not in self._order or not entity.sched_push_notify:
            return  # detached mid-slice, or volatile (never indexed)
        self._sync_epoch()
        if entity.runnable and eid not in self._pos and entity is not self._parked:
            self._index_insert(entity)  # parks it if it is alone

    def _unpark(self) -> None:
        """Queue the parked winner for real, on the shard it was placed
        on when it parked: active counts may have moved since, so
        placing it again could differ.  Every path that reads or writes
        the index calls this first, so each sees the index it would
        have seen.  (The group snapshot it pushes may carry a pass
        charged since the park; passes only grow, so it still
        understates the live value, which is all the lazy group heap
        needs.)"""
        entity = self._parked
        self._parked = None
        self._index_insert(entity, self._home[id(entity)])

    def _pick_parked(
        self,
        entity: Schedulable,
        cpu: int,
        exclude: Optional[set],
        best_volatile_key: Optional[tuple],
    ) -> Optional[Schedulable]:
        """:meth:`pick_for_cpu` on the parked winner's home core, with a
        clean shard: "insert it, then pick" fused.

        The walk would find the winner's entry alone and weigh it
        against the best ready volatile.  When that volatile strictly
        outranks its layer or beats its key, the winner stays parked
        (queued virtually; nothing in the index moved) and None lets the
        volatile win.  Otherwise the effects are those of
        :meth:`_index_insert`, then the walk's win or retirement, net of
        the entries a pick that empties the index clears again: a
        runnable winner gets its pick stamp, goes active and clamps its
        group to the virtual time; a blocked one is retired (None).  An
        excluded or capped winner would stay queued: ``_FULL_PICK``
        makes the caller unpark it and take the full pick.
        """
        eid = id(entity)
        priority, _gkey, group = self._parts[eid]
        if best_volatile_key is not None and -best_volatile_key[0] > priority:
            return None  # the walk stops above this entry's layer
        runnable = entity.runnable
        if runnable:
            if exclude is not None and eid in exclude:
                return _FULL_PICK
            container = entity.charge_container()
            if container is not None and self._capped(container):
                return _FULL_PICK
            if best_volatile_key is not None:
                if group is None:
                    pass_value = self._group_vtime
                else:
                    pass_value = _node_state(group).pass_value
                key = (-priority, pass_value, self._last_ran[eid], self._order[eid])
                if not key < best_volatile_key:
                    return None  # the volatile wins
        self._parked = None
        if not runnable:
            return None
        self._active[eid] = cpu
        self._active_count[cpu] += 1
        self._stamp_win(entity, group)
        return entity

    def _stamp_win(
        self, entity: Schedulable, group: Optional[ResourceContainer]
    ) -> None:
        """A win without an index entry to dequeue (the parked winner's,
        or a volatile's): the round-robin pick stamp, and the winner's
        group clamped up to the global virtual time, as every win does."""
        self._pick_seq += 1
        self._last_ran[id(entity)] = self._pick_seq
        if group is not None:
            state = _node_state(group)
            state.pass_value = max(state.pass_value, self._group_vtime)
            self._group_vtime = state.pass_value

    def _ready_candidate(self, exclude: Optional[set]) -> tuple:
        """Best ready volatile as (key, entity, group), or three Nones.

        Volatile entities have no index entry: the ready set is
        evaluated with the original linear logic, under the original
        key, and the members found not runnable leave it.  Selecting a
        net thread's head may discard a destroyed container's stranded
        packets, so an entity that charges nobody is asked once more:
        if that left it with no work, it is idle too.
        """
        best = best_key = best_group = None
        idle: Optional[list[int]] = None
        for eid, entity in self._ready.items():
            if not entity.runnable:
                if idle is None:
                    idle = []
                idle.append(eid)
                continue
            if exclude is not None and eid in exclude:
                continue
            container = entity.charge_container()
            if container is None:
                if not entity.runnable:
                    if idle is None:
                        idle = []
                    idle.append(eid)
                    continue
                group = None
                group_pass = self._group_vtime
                priority = 1
            else:
                if self._capped(container):
                    continue
                group = self._hcache.top_level(container)
                group_pass = _node_state(group).pass_value
                priority = self._combined_priority(entity, container)
            key = (
                -priority,
                group_pass,
                self._last_ran.get(eid, 0),
                self._order.get(eid, 0),
            )
            if best_key is None or key < best_key:
                best_key = key
                best = entity
                best_group = group
        if idle is not None:
            for eid in idle:
                del self._ready[eid]
        return best_key, best, best_group

    def _requeue_deferred(self, deferred: list) -> None:
        """Put capped/excluded entities back; refresh displaced heads."""
        if not deferred:
            return
        touched: dict[tuple, tuple] = {}
        for shard, bkey, entry in deferred:
            bucket = shard.buckets.get(bkey)
            if bucket is None:
                bucket = shard.buckets[bkey] = []
            heapq.heappush(bucket, entry)
            touched[(shard.index, bkey)] = (shard, bucket)
        for (_index, (priority, gkey)), (shard, bucket) in touched.items():
            if gkey is not None and bucket:
                group = self._groups.get(gkey)
                if group is not None:
                    self._push_group_entry(shard, priority, gkey, group, bucket)

    def _indexed_candidate(
        self,
        shard: _ReadyShard,
        exclude: Optional[set],
        deferred: list,
        best_volatile_key: Optional[tuple],
    ) -> Optional[tuple]:
        """Best indexed entity on one shard as (key, entity, group, bkey).

        Walks priority layers highest-first and stops as soon as a layer
        yields a candidate (strict layering) or the best volatile
        candidate is known to outrank everything below.
        """
        priorities = set(shard.layer_heaps)
        if shard.buckets.get((1, None)):
            priorities.add(1)
        for priority in sorted(priorities, reverse=True):
            if best_volatile_key is not None and -best_volatile_key[0] > priority:
                return None  # the volatile candidate strictly outranks the rest
            found = self._layer_candidate(shard, priority, exclude, deferred)
            if priority == 1:
                none_found = self._none_candidate(shard, exclude, deferred)
                if none_found is not None and (
                    found is None or none_found[0] < found[0]
                ):
                    found = none_found
            if found is not None:
                return found
            if best_volatile_key is not None and -best_volatile_key[0] == priority:
                return None  # nothing indexed in the volatile's own layer
        return None

    def _steal_candidate(
        self,
        cpu: int,
        floor_key: Optional[tuple],
        exclude: Optional[set],
        deferred: list,
    ) -> Optional[tuple]:
        """Work found on other shards that this core must run.

        Steals only layers *strictly above* the local candidate's
        priority (strict machine-wide layering); an idle core with no
        local candidate steals anything.  Victims are scanned richest
        first (highest queued+active load, then lowest index), which is
        deterministic and drains the most backed-up shard.  Returns
        (key, entity, group, bkey, victim_shard) or None.
        """
        floor_priority = None if floor_key is None else -floor_key[0]
        # Cheap refusal first: on the saturated fast path every layer
        # with live entries is at (or below) the local candidate's
        # priority and nothing below builds any per-pick structures.
        top = None
        for priority, count in self._layer_counts.items():
            if count > 0 and (top is None or priority > top):
                top = priority
        if top is None or (
            floor_priority is not None and top <= floor_priority
        ):
            return None
        live = sorted(
            (p for p, count in self._layer_counts.items() if count > 0),
            reverse=True,
        )
        shards = self._shards
        active = self._active_count
        order = sorted(
            (i for i in range(self.n_cpus) if i != cpu),
            key=lambda i: (-(shards[i].queued + active[i]), i),
        )
        for priority in live:
            if floor_priority is not None and priority <= floor_priority:
                return None
            for index in order:
                vshard = shards[index]
                found = self._layer_candidate(vshard, priority, exclude, deferred)
                if priority == 1:
                    none_found = self._none_candidate(vshard, exclude, deferred)
                    if none_found is not None and (
                        found is None or none_found[0] < found[0]
                    ):
                        found = none_found
                if found is not None:
                    return found + (vshard,)
        return None

    def _layer_candidate(
        self,
        shard: _ReadyShard,
        priority: int,
        exclude: Optional[set],
        deferred: list,
    ) -> Optional[tuple]:
        """Stride pick within one shard's layer: the group with the
        smallest (pass, head stamp, head order), via the lazy group heap."""
        heap = shard.layer_heaps.get(priority)
        while heap:
            entry = heap[0]
            pass_value, head_stamp, head_order, gkey = entry
            bkey = (priority, gkey)
            if shard.gpos.get(bkey) != entry:
                heapq.heappop(heap)  # dead snapshot, superseded
                continue
            group = self._groups.get(gkey)
            if group is None:
                heapq.heappop(heap)
                del shard.gpos[bkey]
                continue
            head = self._effective_head(shard, bkey, exclude, deferred)
            if head is None:
                heapq.heappop(heap)  # bucket empty or fully ineligible
                del shard.gpos[bkey]
                continue
            stamp, order, eid = head
            current = (_node_state(group).pass_value, stamp, order)
            if (pass_value, head_stamp, head_order) != current:
                corrected = current + (gkey,)
                shard.gpos[bkey] = corrected
                heapq.heapreplace(heap, corrected)
                continue
            key = (-priority, pass_value, stamp, order)
            return (key, self._entities[eid], group, bkey)
        return None

    def _none_candidate(
        self, shard: _ReadyShard, exclude: Optional[set], deferred: list
    ) -> Optional[tuple]:
        """Candidate among charge-nobody entities (pseudo-group: the
        global virtual time stands in for a pass value)."""
        head = self._effective_head(shard, (1, None), exclude, deferred)
        if head is None:
            return None
        stamp, order, eid = head
        key = (-1, self._group_vtime, stamp, order)
        return (key, self._entities[eid], None, (1, None))

    def _effective_head(
        self,
        shard: _ReadyShard,
        bkey: tuple,
        exclude: Optional[set],
        deferred: list,
    ) -> Optional[tuple]:
        """The bucket's best *eligible* entry, validating lazily.

        Stale entries (superseded, detached, no longer runnable) are
        dropped; eligible-but-barred ones (capped out, or in the
        caller's ``exclude`` set) are set aside for :meth:`_requeue_deferred`.
        """
        bucket = shard.buckets.get(bkey)
        if bucket is None:
            return None
        priority, gkey = bkey
        sidx = shard.index
        while bucket:
            entry = bucket[0]
            stamp, order, eid = entry
            if self._pos.get(eid) != (sidx, priority, gkey, stamp):
                heapq.heappop(bucket)
                continue
            entity = self._entities.get(eid)
            if entity is None or not entity.runnable:
                heapq.heappop(bucket)
                self._pos_drop(eid)
                continue
            if exclude is not None and eid in exclude:
                heapq.heappop(bucket)
                deferred.append((shard, bkey, entry))
                continue
            container = entity.charge_container()
            if container is not None and self._capped(container):
                heapq.heappop(bucket)
                deferred.append((shard, bkey, entry))
                continue
            return entry
        del shard.buckets[bkey]
        return None

    def _combined_priority(
        self, entity: Schedulable, container: ResourceContainer
    ) -> int:
        """Priority of an entity: combined over its scheduler binding.

        The entity reports the max priority over the containers it
        serves (:meth:`Schedulable.scheduler_priority`: a thread's
        :meth:`SchedulerBinding.combined_priority`, a net thread's
        memoized best waiting priority); an entity serving none falls
        back to the charge container's own priority.
        """
        priority = entity.scheduler_priority()
        if priority is None:
            return container.attrs.numeric_priority
        return priority

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------

    def charge(
        self,
        entity: Schedulable,
        container: Optional[ResourceContainer],
        amount_us: float,
        now: float,
    ) -> None:
        if amount_us <= 0.0 or container is None:
            return
        self.note_charge(container, amount_us, now)
        self._sync_epoch()
        group = self._hcache.top_level(container)
        weight = self._weights.get(group.cid)
        if weight is None:
            weight = self._compute_group_weight(group)
            self._weights[group.cid] = weight
        state = _node_state(group)
        state.pass_value += amount_us / max(weight, 1e-9)

    # ------------------------------------------------------------------
    # Introspection (tests, experiments)
    # ------------------------------------------------------------------

    def queued_on(self, cpu: int) -> int:
        """Live ready-index entries homed on one shard, the parked
        winner included (tests/metrics)."""
        parked = self._parked
        here = parked is not None and self._home[id(parked)] == cpu
        return self._shards[cpu].queued + here

