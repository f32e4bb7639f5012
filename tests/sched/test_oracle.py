"""ContainerScheduler against the reference scheduler, and the states the
reference cannot express.

The fuzz drives the production scheduler and
:class:`~tests.sched.oracle.ReferenceScheduler` over one shared world of
containers and fakes, under the kernel's contracts (listed in the
oracle's docstring), and compares every pick on every core and the
final ``steals``.  Pass values and pick stamps are each scheduler's own;
the window ledgers are shared, so after every production window roll
the world checks the whole tree was reset before the oracle rolls.
Between a slice's end and the next pick the world may also wake, block
or rebind the entity that just ran, wake a blocked entity into an empty
index, rebind the parked winner, or apply any other mutation: with
nothing else queued, on any CPU count, that is the window in which
production holds the lone winner parked instead of queued, and it stays
parked through its home core's picks that a ready volatile wins (a pick
on another core unparks it and takes the full pick).

The scripted tests below pin production's lazy index on states the
oracle has no notion of (dead entries, shard queue counts, the volatile
ready set) or that the kernel contracts exclude, with literal values.
"""

import random

import pytest

from repro.core.attributes import fixed_share_attrs, timeshare_attrs
from repro.core.hierarchy import iter_subtree
from repro.core.operations import ContainerManager
from repro.sched.container_sched import ContainerScheduler
from repro import Host, SystemMode
from repro.net.packet import Packet, PacketKind
from tests.sched.oracle import IndexedFake, ReferenceScheduler, VolatileFake

QUANTUM_US = 1_000.0

#: Top-level groups: name, fixed share (None: time-share), time-share
#: weight, initial priority.  ``mid``, ``fixed`` and ``capped`` share
#: the default layer so the cap bites on a competitor.
_TOPS = [
    ("mid", None, 1.0, 4),
    ("fixed", 0.3, None, 4),
    ("capped", 0.2, None, 4),
    ("hi", None, 1.0, 6),
    ("lo", None, 1.0, 1),
    ("zero", None, 2.0, 0),
]


def _attrs(top, priority, cap):
    _name, share, weight, _priority = _TOPS[top]
    if share is None:
        return timeshare_attrs(priority=priority, weight=weight, cpu_limit=cap)
    return fixed_share_attrs(share, cpu_limit=cap, numeric_priority=priority)


class World:
    """Containers, fakes and both schedulers; ``running`` maps a core to
    the entity the two agreed to run there."""

    def __init__(self, n_cpus, n_indexed, n_volatile):
        self.manager = manager = ContainerManager()
        self.sched = ContainerScheduler(
            manager.root, quantum_us=QUANTUM_US, window_us=10_000.0, n_cpus=n_cpus
        )
        self.oracle = ReferenceScheduler(
            manager.root,
            quantum_us=QUANTUM_US,
            window_us=10_000.0,
            n_cpus=n_cpus,
            placement=self.sched,
        )
        manager.on_destroy.append(self.sched.note_container_destroyed)
        self.tops = []
        for top, (name, _share, _weight, priority) in enumerate(_TOPS):
            cap = 0.2 if name == "capped" else None
            self.tops.append(manager.create(name, attrs=_attrs(top, priority, cap)))
        fixed, capped = self.tops[1], self.tops[2]  # with leaves: groups
        self.containers = self.tops + [
            manager.create("f1", parent=fixed),
            manager.create("f2", parent=fixed),
            manager.create("c1", parent=capped),
        ]
        #: Per-request principals created by "spawn", released by "kill".
        self.spawned = []
        self.indexed = [
            IndexedFake(f"i{i}", self.containers[i % len(self.containers)])
            for i in range(n_indexed)
        ]
        pool = self.containers + [None]
        self.volatile = [
            VolatileFake(f"v{i}", pool[(2 * i + 1) % len(pool)])
            for i in range(n_volatile)
        ]
        self.entities = self.indexed + self.volatile
        for entity in self.entities:
            self.sched.attach(entity)
            self.oracle.attach(entity)
        self.running = {}
        #: Picks that found production holding a parked winner, and
        #: those made on a core other than its home (which unpark it).
        self.parked = self.parked_away = 0
        #: Picks that weighed a parked winner against a ready volatile.
        self.weighed = 0
        #: Picks that walked the heaps over exactly one live entry.
        self.lone_walks = 0
        #: Wakeups into an empty index that parked the woken entity.
        self.woke_alone = 0
        #: Rebinds of the parked winner: runnable (re-keyed in place)
        #: and blocked (retired where it parked).
        self.rekeyed = self.retired = 0
        weigh = self.sched._pick_parked
        walk = self.sched._indexed_candidate

        def counting_weigh(entity, cpu, exclude, best_volatile_key):
            self.weighed += best_volatile_key is not None
            return weigh(entity, cpu, exclude, best_volatile_key)

        def counting_walk(shard, exclude, deferred, best_volatile_key):
            self.lone_walks += len(self.sched._pos) == 1
            return walk(shard, exclude, deferred, best_volatile_key)

        self.sched._pick_parked = counting_weigh
        self.sched._indexed_candidate = counting_walk

    def bindable(self):
        return self.containers + [c for c in self.spawned if c.alive]

    def apply(self, op, now):
        """One seeded mutation, inside the kernel's contracts."""
        kind, index, arg = op
        schedulers = (self.sched, self.oracle)
        if kind == "flip":
            entity = self.entities[index % len(self.entities)]
            if arg:
                entity.runnable = True
                for sched in schedulers:
                    sched.on_wakeup(entity, now)
            elif entity in self.volatile:
                entity.runnable = False  # indexed ones block at slice end
        elif kind == "rebind":
            pool = self.bindable()
            self.indexed[index % len(self.indexed)].container = pool[arg % len(pool)]
        elif kind == "retarget" and self.volatile:
            pool = self.bindable() + [None]
            self.volatile[index % len(self.volatile)].container = pool[arg % len(pool)]
        elif kind == "charge":
            container = self.containers[index % len(self.containers)]
            container.charge_cpu(arg)
            for sched in schedulers:
                sched.charge(None, container, arg, now)
        elif kind == "roll":
            self.sched.window_roll(now)
            tree = iter_subtree(self.manager.root)
            assert all(node.window_usage_us == 0.0 for node in tree)
            self.oracle.window_roll(now)
        elif kind == "attrs":
            priority, cap = arg
            top = index % len(self.tops)
            self.manager.set_attributes(self.tops[top], _attrs(top, priority, cap))
        elif kind == "spawn":
            self.spawned.append(
                self.manager.create(
                    f"req{len(self.spawned)}", attrs=timeshare_attrs(priority=arg)
                )
            )
        elif kind == "kill":
            bound = {id(e.container) for e in self.indexed}
            free = [c for c in self.spawned if c.alive and id(c) not in bound]
            if free:
                self.manager.release(free[index % len(free)])

    def end_slice(self, cpu, now, block):
        entity = self.running.pop(cpu, None)
        if entity is None:
            return None
        container = entity.charge_container()
        if container is not None:
            container.charge_cpu(QUANTUM_US)
        for sched in (self.sched, self.oracle):
            sched.charge(entity, container, QUANTUM_US, now)
            sched.on_slice_end(entity, now)
        if block:
            entity.runnable = False
        return entity

    def between(self, entity, rng, now):
        """One mutation between a slice's end and the next pick: a
        blocked entity wakes into an empty index, the parked winner is
        rebound, the entity that just ran wakes, blocks (still right
        after its ``on_slice_end``) or is rebound, or anything else
        happens."""
        roll = rng.random()
        sched = self.sched
        if roll < 0.1:
            running = set(map(id, self.running.values()))
            blocked = [
                e for e in self.indexed if not e.runnable and id(e) not in running
            ]
            if blocked and not sched._pos and sched._parked is None:
                woken = blocked[rng.randrange(len(blocked))]
                woken.runnable = True
                for scheduler in (sched, self.oracle):
                    scheduler.on_wakeup(woken, now)
                self.woke_alone += sched._parked is woken
        elif roll < 0.2:
            parked = sched._parked
            pool = self.bindable()
            target = pool[rng.randrange(len(pool))]
            if parked is not None and target is not parked.container:
                self.rekeyed += parked.runnable
                self.retired += not parked.runnable
                parked.container = target
        elif entity is None or roll < 0.4:
            self.apply(_random_op(rng), now)
        elif roll < 0.6:
            entity.runnable = True
            for sched in (self.sched, self.oracle):
                sched.on_wakeup(entity, now)
        elif roll < 0.8:
            entity.runnable = False
        elif entity in self.indexed:
            pool = self.bindable()
            entity.container = pool[rng.randrange(len(pool))]

    def pick(self, cpu, now, extra_exclude):
        exclude = {id(e) for e in self.running.values()}
        if extra_exclude is not None:
            exclude.add(id(self.entities[extra_exclude % len(self.entities)]))
        parked = self.sched._parked
        if parked is not None:
            self.parked += 1
            self.parked_away += self.sched._home[id(parked)] != cpu
        # A volatile whose container died is stranded by the first
        # charge_container() that sees it; production must face the
        # state the oracle saw, so undo the oracle's strandings first.
        before = [(v.container, v.runnable, v.stranded) for v in self.volatile]
        want = self.oracle.pick_for_cpu(now, cpu, exclude)  # placement pre-pick
        for entity, state in zip(self.volatile, before):
            entity.container, entity.runnable, entity.stranded = state
        got = self.sched.pick_for_cpu(now, cpu, exclude)
        assert got is want, (getattr(got, "name", None), getattr(want, "name", None))
        if got is not None:
            self.running[cpu] = got
        self.assert_queued()
        return got

    def assert_queued(self):
        """Every runnable push-notify entity that is not running holds a
        live entry on its home shard, or is the parked winner (queued
        virtually, and kept parked by picks a volatile wins); the oracle
        reads that home, so a lost entry would otherwise hide behind it."""
        running = {id(e) for e in self.running.values()}
        for entity in self.indexed:
            eid = id(entity)
            parked = entity is self.sched._parked
            if entity.runnable and eid not in running and not parked:
                pos = self.sched._pos.get(eid)
                assert pos is not None and pos[0] == self.sched._home[eid], entity.name


def _random_op(rng):
    roll = rng.random()
    if roll < 0.36:
        return ("flip", rng.randrange(1_000), rng.random() < 0.55)
    if roll < 0.48:
        return ("rebind", rng.randrange(1_000), rng.randrange(1_000))
    if roll < 0.60:
        return ("retarget", rng.randrange(1_000), rng.randrange(1_000))
    if roll < 0.78:
        return ("charge", rng.randrange(1_000), rng.uniform(10.0, 3_000.0))
    if roll < 0.84:
        return ("roll", 0, None)
    if roll < 0.90:
        limit = rng.choice([None, None, 0.1, 0.3])
        return ("attrs", rng.randrange(1_000), (rng.choice([0, 1, 4, 6]), limit))
    if roll < 0.95:
        return ("spawn", 0, rng.choice([1, 4, 6]))
    return ("kill", rng.randrange(1_000), None)


def _fuzz(n_cpus, n_indexed, n_volatile, seed):
    """200 seeded quanta of one world; every pick is compared as it
    happens.  Returns the world and the number of picks that ran one."""
    rng = random.Random(f"{seed}-{n_cpus}-{n_indexed}-{n_volatile}")
    world = World(n_cpus, n_indexed, n_volatile)
    now = 0.0
    picks = 0
    for _step in range(200):
        for _ in range(rng.randrange(4)):
            world.apply(_random_op(rng), now)
        for cpu in range(n_cpus):
            ended = world.end_slice(cpu, now, block=rng.random() < 0.3)
            while rng.random() < 0.3:
                world.between(ended, rng, now)
            extra = rng.randrange(1_000) if rng.random() < 0.2 else None
            picks += world.pick(cpu, now, extra) is not None
        now += QUANTUM_US
    assert world.sched.steals == world.oracle.steals
    return world, picks


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
@pytest.mark.parametrize(
    "n_indexed,n_volatile", [(1, 0), (1, 3), (2, 1), (3, 2), (7, 9)]
)
@pytest.mark.parametrize("seed", range(5))
def test_production_matches_oracle(n_cpus, n_indexed, n_volatile, seed):
    world, picks = _fuzz(n_cpus, n_indexed, n_volatile, seed)
    assert picks > 50  # the schedule really ran
    # Winners park at every CPU count, are picked from other cores, and
    # are weighed against ready volatiles.
    assert world.parked > 0
    assert world.parked_away > 0 or n_cpus == 1
    assert world.weighed > 0 or n_volatile == 0
    # A lone entry the park could not serve (excluded, capped, behind a
    # dirty home shard, or left behind by a walk) takes the heap walk.
    assert world.lone_walks > 0


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
def test_fuzz_world_parks_from_wakeups_and_rebinds_the_parked_winner(n_cpus):
    """The fuzz wakes entities into an empty index (which parks them)
    and rebinds the parked winner, runnable and blocked."""
    totals = [0, 0, 0]
    for seed in range(3):
        for n_indexed, n_volatile in [(1, 0), (2, 1), (3, 2)]:
            world, _picks = _fuzz(n_cpus, n_indexed, n_volatile, seed)
            totals[0] += world.woke_alone
            totals[1] += world.rekeyed
            totals[2] += world.retired
    assert all(total > 0 for total in totals), totals


def test_fuzz_world_strands_volatiles():
    """The fuzz reaches a volatile whose container died under it: its
    next ``charge_container()`` leaves it idle (see VolatileFake)."""
    stranded = 0
    for n_cpus in (1, 2):
        for seed in range(3):
            world, _picks = _fuzz(n_cpus, 7, 9, seed)
            stranded += sum(entity.stranded for entity in world.volatile)
    assert stranded > 0


def _one_entry_world(n_cpus=1):
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root, n_cpus=n_cpus)
    mid = manager.create("mid", attrs=timeshare_attrs(priority=4))
    entity = IndexedFake("e", mid)
    sched.attach(entity)
    return manager, sched, entity


@pytest.mark.parametrize(
    "volatile_priority,retired", [(6, False), (4, True), (1, True)]
)
def test_blocked_sole_entry_retires_only_when_its_layer_is_reached(
    volatile_priority, retired
):
    manager, sched, entity = _one_entry_world()
    other = manager.create("other", attrs=timeshare_attrs(priority=volatile_priority))
    volatile = VolatileFake("v", other)
    sched.attach(volatile)
    entity.runnable = False  # blocks while queued, without a notification
    assert sched.queued_on(0) == 1
    assert sched.pick_for_cpu(0.0, 0) is volatile
    assert sched._parked is None
    assert sched.queued_on(0) == (0 if retired else 1)


@pytest.mark.parametrize(
    "volatile_priority,retired", [(6, False), (4, True), (1, True)]
)
def test_blocked_parked_entry_retires_only_when_its_layer_is_reached(
    volatile_priority, retired
):
    """Parked after its slice with the volatile woken beside it: a
    volatile that outranks the blocked entry's layer wins without
    retiring it, and the entry stays parked."""
    manager, sched, entity = _one_entry_world()
    other = manager.create("other", attrs=timeshare_attrs(priority=volatile_priority))
    volatile = VolatileFake("v", other)
    volatile.runnable = False
    sched.attach(volatile)
    assert sched.pick_for_cpu(0.0, 0) is entity
    sched.on_slice_end(entity, 0.0)
    assert sched._parked is entity
    volatile.runnable = True
    sched.on_wakeup(volatile, 0.0)
    entity.runnable = False  # blocks while parked, without a notification
    assert sched.pick_for_cpu(0.0, 0) is volatile
    assert (sched._parked is entity) == (not retired)
    assert sched.queued_on(0) == (0 if retired else 1)


def test_excluded_sole_entry_stays_queued():
    _manager, sched, entity = _one_entry_world()
    assert sched.pick_for_cpu(0.0, 0, {id(entity)}) is None
    assert sched.queued_on(0) == 1
    assert sched.pick_for_cpu(0.0, 0) is entity
    assert sched.queued_on(0) == 0


def test_capped_sole_entry_stays_queued_until_the_window_rolls():
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root, window_us=10_000.0)
    capped = manager.create("capped", attrs=fixed_share_attrs(0.5, cpu_limit=0.1))
    entity = IndexedFake("e", capped)
    sched.attach(entity)
    capped.charge_cpu(1_000.0)  # the whole window budget
    assert sched.pick_for_cpu(0.0, 0) is None
    assert sched.queued_on(0) == 1
    sched.window_roll(10_000.0)
    assert sched.pick_for_cpu(10_000.0, 0) is entity


def test_sole_entry_on_another_core_is_stolen():
    _manager, sched, entity = _one_entry_world(n_cpus=2)
    other = IndexedFake("f", entity.container)
    sched.attach(other)  # a second insert queues the parked entity
    sched.detach(other)  # and leaves it alone in the index
    assert sched._parked is None and len(sched._pos) == 1
    home = next(cpu for cpu in range(2) if sched.queued_on(cpu) == 1)
    assert sched.pick_for_cpu(0.0, 1 - home) is entity  # the heap walk's steal
    assert sched.steals == 1


def test_group_destroyed_under_sole_entry():
    """A group destroyed under its sole queued entity, then a second
    entity queued behind it in the same bucket: the first pick drops the
    dead group's heap entry, so no later pick can reach the bucket --
    not the walk over both entries, nor the walk over the second once it
    is alone -- and the entries stay counted.  The kernel's reference
    count forbids this state; the values are the heap walk's."""
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root)
    manager.on_destroy.append(sched.note_container_destroyed)
    doomed = manager.create("req", attrs=timeshare_attrs(priority=4))
    first = IndexedFake("first", doomed)
    sched.attach(first)
    manager.release(doomed)  # fakes hold no reference: it dies bound
    assert sched.pick_for_cpu(0.0, 0) is None
    assert sched.queued_on(0) == 1
    sched.attach(IndexedFake("second", doomed))
    assert sched.pick_for_cpu(1.0, 0) is None
    assert sched.queued_on(0) == 2
    sched.detach(first)
    assert sched.pick_for_cpu(2.0, 0) is None
    assert sched.queued_on(0) == 1


def _parked_smp_world(*leaves):
    """A 2-CPU scheduler whose one entity, in the fixed-share group
    ``mid``, parks on attach (homed on core 0); ``leaves`` are extra
    containers made first, so no later epoch bump unparks it."""
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root, n_cpus=2)
    mid = manager.create("mid", attrs=fixed_share_attrs(0.5, numeric_priority=4))
    made = {"mid": mid}
    for name, parent, priority in leaves:
        made[name] = manager.create(
            name, parent=made.get(parent), attrs=timeshare_attrs(priority=priority)
        )
    entity = IndexedFake("e", mid)
    sched.attach(entity)
    assert sched._parked is entity and sched._home[id(entity)] == 0
    return made, sched, entity


def test_parked_home_survives_a_load_change_before_the_unpark():
    """The unpark queues the entity on the shard chosen when it parked,
    although placing it again would now choose the other core."""
    _made, sched, entity = _parked_smp_world()
    sched._active_count[0] += 2  # two entities dispatched on core 0 since
    _priority, gkey, group = sched._parts[id(entity)]
    assert sched._place(id(entity), gkey, group) == 1
    other = IndexedFake("f", entity.container)
    sched.attach(other)  # an index insert: unparks first
    assert sched._parked is None
    assert sched._pos[id(entity)][0] == 0
    assert sched._home[id(other)] == 1


def test_parked_entity_is_stolen_by_the_other_core():
    _made, sched, entity = _parked_smp_world()
    assert sched.queued_on(0) == 1 and sched.queued_on(1) == 0
    assert sched.pick_for_cpu(0.0, 1) is entity
    assert sched.steals == 1
    assert sched._home[id(entity)] == 1
    assert sched._parked is None and not sched._pos
    sched.on_slice_end(entity, 1.0)  # parks again, on its new home
    assert sched._parked is entity and sched.queued_on(1) == 1
    assert sched.pick_for_cpu(1.0, 1) is entity
    assert sched.steals == 1


@pytest.mark.parametrize("volatile_priority,stolen", [(4, False), (1, True)])
def test_other_core_steals_the_parked_entity_only_above_its_volatile(
    volatile_priority, stolen
):
    """A steal takes only a layer strictly above the stealing core's own
    best candidate.  The other core unparks the entity and takes the
    full pick: a ready volatile in its layer wins there and leaves it
    queued on its home."""
    made, sched, entity = _parked_smp_world(("net", None, volatile_priority))
    volatile = VolatileFake("v", made["net"])
    sched.attach(volatile)  # volatile: the index is untouched
    assert sched._parked is entity
    picked = sched.pick_for_cpu(0.0, 1)
    assert picked is (entity if stolen else volatile)
    assert sched.steals == int(stolen)
    assert sched._parked is None  # the other core unparked it
    assert sched._home[id(entity)] == int(stolen)
    assert sched.queued_on(0) == int(not stolen)  # left queued on its home


@pytest.mark.parametrize(
    "target,blocked,home",
    [("hi", False, 1), ("leaf", False, 0), ("hi", True, None)],
)
def test_rebind_while_parked_rekeys_or_retires(target, blocked, home):
    """A rebind of the parked entity re-keys it where it parked: fresh
    parts and, when they moved, fresh placement; blocked, it retires."""
    made, sched, entity = _parked_smp_world(("hi", None, 6), ("leaf", "mid", 4))
    sched._active_count[0] += 2  # re-placing now chooses core 1
    entity.runnable = not blocked
    entity.container = made[target]
    eid = id(entity)
    if blocked:
        assert sched._parked is None and not sched._pos
        assert sched.queued_on(0) == sched.queued_on(1) == 0
        assert sched.pick_for_cpu(0.0, 1) is None
        return
    assert sched._parked is entity and not sched._pos
    assert sched._parts[eid][0] == made[target].attrs.numeric_priority
    assert sched._home[eid] == home
    assert sched.pick_for_cpu(0.0, home) is entity
    assert sched.steals == 0


def _assert_shard_counts(sched):
    """Each shard's ``queued`` is the number of live entries homed there."""
    for shard in sched._shards:
        here = sum(pos[0] == shard.index for pos in sched._pos.values())
        assert shard.queued == here, (shard.index, shard.queued, here)
    assert sum(sched._layer_counts.values()) == len(sched._pos)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_attach_after_a_shape_bump_parks_once(n_cpus):
    """An attach whose epoch sync rebuilds the index parks the new lone
    entity there; the attach itself must not insert it a second time."""
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root, n_cpus=n_cpus)
    mid = manager.create("mid", attrs=timeshare_attrs(priority=4))
    manager.set_attributes(mid, timeshare_attrs(priority=6))  # shape bump
    entity = IndexedFake("e", mid)
    sched.attach(entity)
    assert sched._parked is entity and not sched._pos
    assert sum(sched.queued_on(cpu) for cpu in range(n_cpus)) == 1
    _assert_shard_counts(sched)
    home = sched._home[id(entity)]
    assert sched.pick_for_cpu(0.0, home) is entity
    assert sum(sched.queued_on(cpu) for cpu in range(n_cpus)) == 0
    sched.on_slice_end(entity, 1.0)
    assert sched._parked is entity
    assert sum(sched.queued_on(cpu) for cpu in range(n_cpus)) == 1
    other = IndexedFake("f", mid)
    sched.attach(other)  # unparks: two live entries
    assert len(sched._pos) == 2
    _assert_shard_counts(sched)


def test_idle_volatile_leaves_ready_set_until_woken():
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root)
    entity = VolatileFake("v", manager.create("c"))
    sched.attach(entity)
    assert id(entity) in sched._ready
    entity.runnable = False
    assert sched.pick_for_cpu(0.0, 0) is None
    assert id(entity) not in sched._ready  # dropped lazily by the pick
    entity.runnable = True
    sched.on_wakeup(entity, 1.0)
    assert sched.pick_for_cpu(1.0, 0) is entity


def test_detach_removes_volatile_from_ready_set():
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root)
    entity = VolatileFake("v", manager.create("c"))
    sched.attach(entity)
    sched.detach(entity)
    assert id(entity) not in sched._ready
    sched.on_wakeup(entity, 0.0)  # a late wakeup for a detached entity
    assert id(entity) not in sched._ready
    assert sched.pick_for_cpu(0.0, 0) is None


def test_net_thread_with_only_a_dead_containers_packets_wins_no_pick():
    """Selecting a net thread's head discards a destroyed container's
    stranded packets; a thread left with no work is idle, not
    charge-nobody work that wins a pick with 0 us to run."""
    host = Host(mode=SystemMode.RC, seed=13)
    kernel = host.kernel
    process = kernel.spawn_process("p")
    thread = kernel.net_threads[process.pid]
    doomed = kernel.containers.create("doomed")
    thread.enqueue(doomed, Packet(seq=1, kind=PacketKind.DATA, src_addr=1), 10.0)
    kernel.scheduler.on_wakeup(thread, 0.0)
    kernel.containers.release(doomed)
    picked = kernel.scheduler.pick_for_cpu(0.0, 0)
    assert picked is not thread
    assert picked is None or picked.work_remaining_us() > 0.0
    assert id(thread) not in kernel.scheduler._ready
    assert not thread.runnable and thread.pending_packets() == 0


@pytest.mark.parametrize("make", [ContainerScheduler, ReferenceScheduler])
def test_volatile_left_idle_by_charge_container_wins_no_pick(make):
    manager = ContainerManager()
    doomed = manager.create("doomed")
    entity = VolatileFake("net", doomed)
    sched = make(manager.root)
    sched.attach(entity)
    manager.release(doomed)
    assert entity.runnable
    assert sched.pick_for_cpu(0.0, 0) is None
    assert not entity.runnable
