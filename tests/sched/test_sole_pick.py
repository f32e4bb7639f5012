"""The direct small-population pick, differentially against the heap walk.

When the ready index holds at most one live entry, homed on the picking
core, ``pick_for_cpu`` evaluates that entry directly instead of walking
the shard heaps.  The fuzz below drives such a scheduler next to a twin
with the direct path bypassed and the entity-parts memo disabled, so the
twin walks the heaps on every pick and re-derives every key on every
insert.  Generated worlds cross 0, 1 and 2+ live entries on 1, 2 and 4
CPUs, with a capped group, excluded entities, index entries that block
silently (non-runnable while queued), volatiles that outrank, tie with
or lose to the indexed entry, rebinds, priority changes, and groups
destroyed under a still-bound entity.  After every pick both must agree
on the winner and on ``queued_on`` for every CPU: shard queue counts
steer placement, so a retire at the wrong moment would show there.
"""

import random

import pytest

from repro.core.attributes import fixed_share_attrs, timeshare_attrs
from repro.core.operations import ContainerManager
from repro.sched.container_sched import ContainerScheduler

QUANTUM_US = 1_000.0


class DirectScheduler(ContainerScheduler):
    """The production scheduler, counting which path each pick took and
    how many live entries the index held at the time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sole_picks = 0
        self.walk_picks = 0
        self.live_sizes = set()

    def _sole_live_entry_here(self, cpu):
        self.live_sizes.add(min(len(self._pos), 2))
        sole = super()._sole_live_entry_here(cpu)
        if sole:
            self.sole_picks += 1
        else:
            self.walk_picks += 1
        return sole


class WalkScheduler(ContainerScheduler):
    """Reference twin: always the heap walk, never a memoized key."""

    def _sole_live_entry_here(self, cpu):
        return False

    def _index_insert(self, entity):
        self._parts.pop(id(entity), None)
        super()._index_insert(entity)


class IndexedFake:
    """Push-notify schedulable; rebinding fires the change hook."""

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

    def scheduler_containers(self):
        return [self._container] if self._container is not None else []


class VolatileFake:
    """Non-indexed schedulable whose container changes silently."""

    def __init__(self, name, container):
        self.name = name
        self.container = container
        self.runnable = True

    def charge_container(self):
        return self.container

    def scheduler_containers(self):
        return [self.container] if self.container is not None else []


#: name -> attribute builder taking a numeric priority.  ``mid`` and
#: ``capped`` share the default layer so the cap bites on a competitor.
_SPECS = [
    ("mid", lambda p: timeshare_attrs(priority=p)),
    ("fixed", lambda p: fixed_share_attrs(0.3, numeric_priority=p)),
    ("capped", lambda p: fixed_share_attrs(0.2, cpu_limit=0.2, numeric_priority=p)),
    ("hi", lambda p: timeshare_attrs(priority=p)),
    ("lo", lambda p: timeshare_attrs(priority=p)),
]
_PRIORITIES = [4, 4, 4, 6, 1]


class World:
    """One scheduler over its own containers and entities."""

    def __init__(self, scheduler_cls, n_cpus, n_indexed, n_volatile):
        self.manager = ContainerManager()
        self.sched = scheduler_cls(
            self.manager.root,
            quantum_us=QUANTUM_US,
            window_us=10_000.0,
            n_cpus=n_cpus,
        )
        self.manager.on_destroy.append(self.sched.note_container_destroyed)
        tops = [
            self.manager.create(name, attrs=build(priority))
            for (name, build), priority in zip(_SPECS, _PRIORITIES)
        ]
        self.builders = [build for _name, build in _SPECS]
        #: Bindable containers: the tops, one leaf under each fixed-share
        #: top (so groups have depth), then charge-nobody.
        self.containers = tops + [
            self.manager.create("f1", parent=tops[1]),
            self.manager.create("c1", parent=tops[2]),
            None,
        ]
        #: Per-request principals created by "spawn", destroyed by "kill".
        self.spawned = []
        self.indexed = [
            IndexedFake(f"i{i}", self.containers[i % 3]) for i in range(n_indexed)
        ]
        self.volatile = [
            VolatileFake(f"v{i}", self.containers[(i + 1) % len(self.containers)])
            for i in range(n_volatile)
        ]
        self.entities = self.indexed + self.volatile
        for entity in self.entities:
            self.sched.attach(entity)
        #: cpu -> entity running there.
        self.running = {}


def _apply(world, op, now):
    """Apply one seeded mutation; ``op`` is world-independent."""
    kind, index, arg = op
    sched = world.sched
    if kind == "flip":
        entity = world.entities[index % len(world.entities)]
        entity.runnable = arg  # blocking is silent, as for a queued thread
        if arg:
            sched.on_wakeup(entity, now)
    elif kind == "rebind":
        entity = world.indexed[index % len(world.indexed)]
        pool = world.containers + world.spawned
        entity.container = pool[arg % len(pool)]
    elif kind == "retarget" and world.volatile:
        entity = world.volatile[index % len(world.volatile)]
        entity.container = world.containers[arg % len(world.containers)]
    elif kind == "charge":
        container = world.containers[index % 7]
        container.charge_cpu(arg)
        sched.charge(None, container, arg, now)
    elif kind == "roll":
        sched.window_roll(now)
    elif kind == "prio":
        world.manager.set_attributes(
            world.containers[index % 5], world.builders[index % 5](arg)
        )
    elif kind == "spawn":
        world.spawned.append(
            world.manager.create(
                f"req{len(world.spawned)}", attrs=timeshare_attrs(priority=arg)
            )
        )
    elif kind == "kill":
        alive = [c for c in world.spawned if c.alive]
        if alive:
            # Fakes hold no references: the group dies under its entity.
            world.manager.release(alive[index % len(alive)])


def _random_op(rng):
    roll = rng.random()
    if roll < 0.40:
        return ("flip", rng.randrange(1_000), rng.random() < 0.55)
    if roll < 0.52:
        return ("rebind", rng.randrange(1_000), rng.randrange(1_000))
    if roll < 0.64:
        return ("retarget", rng.randrange(1_000), rng.randrange(1_000))
    if roll < 0.82:
        return ("charge", rng.randrange(1_000), rng.uniform(10.0, 3_000.0))
    if roll < 0.88:
        return ("roll", 0, None)
    if roll < 0.92:
        return ("prio", rng.randrange(1_000), rng.choice([0, 1, 4, 6]))
    if roll < 0.96:
        return ("spawn", 0, rng.choice([1, 4, 6]))
    return ("kill", rng.randrange(1_000), None)


def _end_slice(world, cpu, now, block):
    entity = world.running.pop(cpu, None)
    if entity is None:
        return
    container = entity.charge_container()
    if container is not None and container.alive:
        container.charge_cpu(QUANTUM_US)
        world.sched.charge(entity, container, QUANTUM_US, now)
    world.sched.on_slice_end(entity, now)
    if block:
        entity.runnable = False


def _pick(world, cpu, now, extra_exclude):
    exclude = {id(e) for e in world.running.values()}
    if extra_exclude is not None:
        exclude.add(id(world.entities[extra_exclude % len(world.entities)]))
    chosen = world.sched.pick_for_cpu(now, cpu, exclude)
    if chosen is not None:
        world.running[cpu] = chosen
    return None if chosen is None else chosen.name


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
@pytest.mark.parametrize("n_indexed,n_volatile", [(1, 0), (1, 3), (2, 1), (3, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_direct_pick_matches_heap_walk(n_cpus, n_indexed, n_volatile, seed):
    rng = random.Random(f"{seed}-{n_cpus}-{n_indexed}-{n_volatile}")
    direct = World(DirectScheduler, n_cpus, n_indexed, n_volatile)
    walk = World(WalkScheduler, n_cpus, n_indexed, n_volatile)
    now = 0.0
    picks = 0
    for step in range(300):
        for _ in range(rng.randrange(4)):
            op = _random_op(rng)
            _apply(direct, op, now)
            _apply(walk, op, now)
        for cpu in range(n_cpus):
            block = rng.random() < 0.3
            _end_slice(direct, cpu, now, block)
            _end_slice(walk, cpu, now, block)
            extra = rng.randrange(1_000) if rng.random() < 0.2 else None
            got = _pick(direct, cpu, now, extra)
            want = _pick(walk, cpu, now, extra)
            assert got == want, (step, cpu)
            queued = [direct.sched.queued_on(c) for c in range(n_cpus)]
            assert queued == [walk.sched.queued_on(c) for c in range(n_cpus)], (
                step,
                cpu,
            )
            picks += got is not None
        now += QUANTUM_US
    assert direct.sched.steals == walk.sched.steals
    assert picks > 50  # the schedule really ran
    assert direct.sched.sole_picks > 0
    if n_indexed >= 2:
        assert direct.sched.walk_picks > 0
        assert direct.sched.live_sizes == {0, 1, 2}


def _one_entry_world(n_cpus=1):
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root, n_cpus=n_cpus)
    mid = manager.create("mid", attrs=timeshare_attrs(priority=4))
    entity = IndexedFake("e", mid)
    sched.attach(entity)
    return manager, sched, entity


@pytest.mark.parametrize("volatile_priority,retired", [(6, False), (4, True), (1, True)])
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
    home = next(cpu for cpu in range(2) if sched.queued_on(cpu) == 1)
    assert sched.pick_for_cpu(0.0, 1 - home) is entity  # the heap walk's steal
    assert sched.steals == 1


def _destroyed_group_script(scheduler_cls):
    """A group destroyed under its sole queued entity, then a second
    entity queued behind it in the same bucket: the first pick must drop
    the dead group's heap entry exactly as the walk does, or the second
    pick would find a bucket the walk can no longer reach."""
    manager = ContainerManager()
    sched = scheduler_cls(manager.root)
    manager.on_destroy.append(sched.note_container_destroyed)
    doomed = manager.create("req", attrs=timeshare_attrs(priority=4))
    first = IndexedFake("first", doomed)
    sched.attach(first)
    manager.release(doomed)  # fakes hold no reference: it dies bound
    picks = [sched.pick_for_cpu(0.0, 0)]
    queued = [sched.queued_on(0)]
    sched.attach(IndexedFake("second", doomed))
    picks.append(sched.pick_for_cpu(1.0, 0))
    queued.append(sched.queued_on(0))
    return [getattr(p, "name", None) for p in picks], queued


def test_group_destroyed_under_sole_entry_matches_heap_walk():
    assert _destroyed_group_script(DirectScheduler) == _destroyed_group_script(
        WalkScheduler
    )
