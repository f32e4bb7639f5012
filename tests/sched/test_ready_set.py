"""The wakeup-fed ready set for volatile (non-push-notify) entities.

Volatile entities -- kernel net threads, whose scheduling key follows
their head packet -- are never indexed.  ``on_wakeup`` puts them in a
ready set that ``pick_for_cpu`` evaluates and prunes lazily, so a pick
costs O(runnable volatiles), not O(attached volatiles).  The
differential fuzz below drives a scheduler under that contract next to
a twin that announces a wakeup for *every* volatile before each pick,
which makes the twin evaluate all of them exactly as the old full scan
did: every pick must agree.
"""

import random

import pytest

from repro.core.attributes import fixed_share_attrs, timeshare_attrs
from repro.core.operations import ContainerManager
from repro.sched.container_sched import ContainerScheduler

QUANTUM_US = 1_000.0


class IndexedFake:
    """Push-notify schedulable with a fixed charge container."""

    sched_push_notify = True

    def __init__(self, name, container):
        self.name = name
        self.container = container
        self.runnable = True
        self.sched_note_change = None

    def charge_container(self):
        return self.container

    def scheduler_containers(self):
        return [self.container]


class VolatileFake:
    """Schedulable whose charge container may change silently between
    picks, like a net thread's head packet (None = charge nobody)."""

    def __init__(self, name, container):
        self.name = name
        self.container = container
        self.runnable = True

    def charge_container(self):
        return self.container

    def scheduler_containers(self):
        return [self.container] if self.container is not None else []


class World:
    """One scheduler over its own container tree and entities.

    Pass values live on the containers, so the two schedulers under
    comparison each get a separately built, identical world.
    """

    def __init__(self, n_cpus, n_indexed, n_volatile):
        self.manager = ContainerManager()
        root = self.manager.root
        self.sched = ContainerScheduler(
            root, quantum_us=QUANTUM_US, window_us=10_000.0, n_cpus=n_cpus
        )
        fixed = self.manager.create("fixed", attrs=fixed_share_attrs(0.3))
        capped = self.manager.create(
            "capped",
            attrs=fixed_share_attrs(0.2, cpu_limit=0.2, numeric_priority=2),
        )
        self.containers = [
            self.manager.create("f1", parent=fixed),
            self.manager.create("f2", parent=fixed),
            self.manager.create("c1", parent=capped),
            self.manager.create("hi", attrs=timeshare_attrs(priority=3)),
            self.manager.create("ts", attrs=timeshare_attrs(weight=2.0)),
            self.manager.create("zero", attrs=timeshare_attrs(priority=0)),
        ]
        self.indexed = [
            IndexedFake(f"i{i}", self.containers[i % len(self.containers)])
            for i in range(n_indexed)
        ]
        self.volatile = [
            VolatileFake(f"v{i}", self.containers[(2 * i + 1) % len(self.containers)])
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
        entity.runnable = arg
        if arg:
            sched.on_wakeup(entity, now)
    elif kind == "retarget":
        entity = world.volatile[index % len(world.volatile)]
        entity.container = (
            None if arg is None else world.containers[arg % len(world.containers)]
        )
    elif kind == "charge":
        container = world.containers[index % len(world.containers)]
        container.charge_cpu(arg)
        sched.charge(None, container, arg, now)
    elif kind == "roll":
        sched.window_roll(now)


def _random_op(rng):
    roll = rng.random()
    if roll < 0.45:
        return ("flip", rng.randrange(1_000), rng.random() < 0.6)
    if roll < 0.7:
        target = rng.randrange(1_000) if rng.random() < 0.85 else None
        return ("retarget", rng.randrange(1_000), target)
    if roll < 0.9:
        return ("charge", rng.randrange(1_000), rng.uniform(10.0, 3_000.0))
    return ("roll", 0, None)


def _end_slice(world, cpu, now, block):
    entity = world.running.pop(cpu, None)
    if entity is None:
        return
    container = entity.charge_container()
    if container is not None:
        container.charge_cpu(QUANTUM_US)
    world.sched.charge(entity, container, QUANTUM_US, now)
    world.sched.on_slice_end(entity, now)
    if block:
        entity.runnable = False


def _pick(world, cpu, now, extra_exclude, full_scan):
    sched = world.sched
    if full_scan:
        for entity in world.volatile:
            sched.on_wakeup(entity, now)
    exclude = {id(e) for e in world.running.values()}
    if extra_exclude is not None:
        exclude.add(id(world.entities[extra_exclude % len(world.entities)]))
    chosen = sched.pick_for_cpu(now, cpu, exclude)
    if chosen is not None:
        world.running[cpu] = chosen
    return None if chosen is None else chosen.name


def _assert_ready_superset(world):
    ready = world.sched._ready
    for entity in world.volatile:
        if entity.runnable:
            assert ready.get(id(entity)) is entity, entity.name


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_ready_set_picks_match_full_scan(n_cpus, seed):
    rng = random.Random(seed * 100 + n_cpus)
    lazy = World(n_cpus, n_indexed=7, n_volatile=9)
    full = World(n_cpus, n_indexed=7, n_volatile=9)
    now = 0.0
    picks = 0
    for _step in range(400):
        for _ in range(rng.randrange(4)):
            op = _random_op(rng)
            _apply(lazy, op, now)
            _apply(full, op, now)
        for cpu in range(n_cpus):
            block = rng.random() < 0.25
            _end_slice(lazy, cpu, now, block)
            _end_slice(full, cpu, now, block)
            extra = rng.randrange(1_000) if rng.random() < 0.15 else None
            got = _pick(lazy, cpu, now, extra, full_scan=False)
            want = _pick(full, cpu, now, extra, full_scan=True)
            assert got == want, (seed, _step, cpu)
            picks += got is not None
        _assert_ready_superset(lazy)
        now += QUANTUM_US
    assert picks > 200  # the schedule really ran
    assert lazy.sched.window_rolls == full.sched.window_rolls


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
