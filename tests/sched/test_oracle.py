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
or rebind the entity that just ran, or apply any other mutation: on one
CPU with nothing else queued, that is the window in which production
holds the winner parked instead of queued, and it stays parked through
picks that a ready volatile wins.

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
        #: Whether each pick found production's direct-pick condition.
        self.direct = set()
        #: Picks that found production holding a parked winner.
        self.parked = 0
        #: Picks that weighed a parked winner against a ready volatile.
        self.weighed = 0
        weigh = self.sched._pick_parked

        def counting_weigh(entity, cpu, exclude, best_volatile_key):
            self.weighed += best_volatile_key is not None
            return weigh(entity, cpu, exclude, best_volatile_key)

        self.sched._pick_parked = counting_weigh

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
        """One mutation between a slice's end and the next pick: the
        entity that just ran wakes, blocks (still right after its
        ``on_slice_end``) or is rebound, or anything else happens."""
        roll = rng.random()
        if entity is None or roll < 0.25:
            self.apply(_random_op(rng), now)
        elif roll < 0.5:
            entity.runnable = True
            for sched in (self.sched, self.oracle):
                sched.on_wakeup(entity, now)
        elif roll < 0.75:
            entity.runnable = False
        elif entity in self.indexed:
            pool = self.bindable()
            entity.container = pool[rng.randrange(len(pool))]

    def pick(self, cpu, now, extra_exclude):
        exclude = {id(e) for e in self.running.values()}
        if extra_exclude is not None:
            exclude.add(id(self.entities[extra_exclude % len(self.entities)]))
        self.direct.add(self.sched._sole_live_entry_here(cpu))
        self.parked += self.sched._parked is not None
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
    # The direct pick ran, and so did the heap walk when it can.
    assert True in world.direct
    assert False in world.direct or n_indexed == 1
    # Winners park on one CPU only, and a lone indexed entity does.
    assert world.parked == 0 or n_cpus == 1
    assert world.parked > 0 or n_cpus > 1 or n_indexed > 1
    # ... and a parked winner is weighed against ready volatiles.
    assert world.weighed > 0 or n_cpus > 1 or n_volatile == 0


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
    home = next(cpu for cpu in range(2) if sched.queued_on(cpu) == 1)
    assert sched.pick_for_cpu(0.0, 1 - home) is entity  # the heap walk's steal
    assert sched.steals == 1


def test_group_destroyed_under_sole_entry():
    """A group destroyed under its sole queued entity, then a second
    entity queued behind it in the same bucket: the first pick drops the
    dead group's heap entry, so no later pick can reach the bucket --
    not the walk over both entries, nor the direct pick once the second
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
