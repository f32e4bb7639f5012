"""The kernel's periodic scheduler-binding prune (paper section 4.3).

``Kernel._prune_tick`` visits only the threads on the binding manager's
watch set: those that ``bind_thread`` left holding more than their
current container since the pass last found the binding holding only
that live container.  Every visited binding is pruned exactly as a scan over
every thread would prune it; the differential fuzz at the bottom checks
that against a full-scan twin.
"""

import random

import pytest

from repro import Host, SystemMode
from repro.core.binding import SchedulerBinding
from repro.core.operations import ContainerManager
from repro.syscall import api

PRUNE_US = 100_000.0  # KernelConfig's default prune interval and age


@pytest.fixture
def sleeper(monkeypatch):
    """An RC host with one sleeping thread, plus spies on its binding."""
    host = Host(mode=SystemMode.RC, seed=5)

    def body():
        yield api.Sleep(1e9)

    process = host.kernel.spawn_process("p", body)
    host.run(until_us=1_000.0)
    thread = process.threads[0]
    binding = thread.scheduler_binding
    assert list(binding.members()) == [thread.resource_binding]

    pruned = []
    original_prune = SchedulerBinding.prune

    def spy_prune(self, *args, **kwargs):
        if self is binding:
            pruned.append(args[0])
        return original_prune(self, *args, **kwargs)

    monkeypatch.setattr(SchedulerBinding, "prune", spy_prune)
    changes = [0]
    scheduler_hook = binding.on_change

    def spy_change():
        changes[0] += 1
        if scheduler_hook is not None:
            scheduler_hook()

    binding.on_change = spy_change
    return host, thread, binding, pruned, changes


def test_sole_live_current_container_is_skipped(sleeper):
    host, thread, binding, pruned, changes = sleeper
    host.run(until_us=2.5 * PRUNE_US)
    assert pruned == []
    assert changes[0] == 0
    assert list(binding.members()) == [thread.resource_binding]


def test_stale_second_member_is_still_pruned(sleeper):
    host, thread, binding, pruned, changes = sleeper
    home = thread.resource_binding
    bindings = host.kernel.containers.bindings
    extra = host.kernel.containers.create("extra")
    bindings.bind_thread(thread, extra, host.sim.now)
    bindings.bind_thread(thread, home, host.sim.now)
    assert changes[0] == 1  # the member joined
    host.run(until_us=2.5 * PRUNE_US)
    assert pruned  # both ticks pruned; the second one aged ``extra`` out
    assert extra not in binding
    assert list(binding.members()) == [home]
    assert changes[0] == 2


def test_dead_member_is_pruned_at_the_next_pass(sleeper):
    host, thread, binding, pruned, changes = sleeper
    home = thread.resource_binding
    bindings = host.kernel.containers.bindings
    extra = host.kernel.containers.create("extra")
    bindings.bind_thread(thread, extra, host.sim.now)
    bindings.bind_thread(thread, home, host.sim.now)
    host.kernel.containers.release(extra)  # last reference: it dies
    assert not extra.alive
    assert changes[0] == 1  # ``extra`` joined
    host.run(until_us=1.5 * PRUNE_US)
    # Dead members go at the next pass however recently they were bound.
    assert pruned == [PRUNE_US]
    assert list(binding.members()) == [home]
    assert len(binding) == 1
    assert changes[0] == 2


def test_current_container_outlives_its_last_descriptor(sleeper):
    """The invariant the watch set rests on: a thread's resource binding
    holds a reference, so its container cannot die under it and a
    binding holding only that container needs no pruning."""
    host, thread, binding, pruned, changes = sleeper
    bound = host.kernel.containers.create("bound")
    host.kernel.containers.bindings.bind_thread(thread, bound, host.sim.now)
    host.kernel.containers.release(bound)
    assert bound.alive
    host.run(until_us=2.5 * PRUNE_US)
    assert pruned == [PRUNE_US, 2 * PRUNE_US]  # the old home aged out
    assert list(binding.members()) == [bound]
    assert bound.alive


# ----------------------------------------------------------------------
# Differential fuzz: watched pass vs a scan over every thread
# ----------------------------------------------------------------------

AGE_US = 100_000.0


class _Process:
    def __init__(self, pid):
        self.pid = pid


class _Thread:
    """Stand-in carrying what the binding manager and the pass read."""

    def __init__(self, tid, process):
        self.tid = tid
        self.process = process
        self.resource_binding = None
        self.scheduler_binding = SchedulerBinding()
        self.exited = False


class PruneWorld:
    """Threads and containers under one binding manager.

    ``full_scan`` selects the pass: the manager's watched pass, or the
    reference scan that prunes every live thread's binding in (pid, tid)
    order.  Both log every ``on_change`` as the thread's tid.
    """

    def __init__(self, full_scan):
        self.full_scan = full_scan
        self.manager = ContainerManager()
        self.containers = []
        self.held = []  # containers whose creator reference is not released
        self.processes = []
        self.threads = []
        self.log = []
        self.now = 0.0
        for _ in range(3):
            self.create()

    def create(self):
        container = self.manager.create(f"c{len(self.containers)}")
        self.containers.append(container)
        self.held.append(container)

    def live(self, index):
        alive = [t for t in self.threads if not t.exited]
        return alive[index % len(alive)] if alive else None

    def container(self, index):
        alive = [c for c in self.containers if c.alive]
        if not alive:
            self.create()
            alive = self.containers[-1:]
        return alive[index % len(alive)]

    def spawn(self, process_index, container_index):
        if process_index >= len(self.processes):
            self.processes.append(_Process(len(self.processes) + 1))
            process_index = len(self.processes) - 1
        thread = _Thread(len(self.threads) + 1, self.processes[process_index])
        thread.scheduler_binding.on_change = (
            lambda tid=thread.tid: self.log.append(tid)
        )
        self.threads.append(thread)
        self.manager.bindings.bind_thread(
            thread, self.container(container_index), self.now
        )

    def apply(self, op):
        kind, a, b = op
        bindings = self.manager.bindings
        if kind == "create":
            self.create()
            return
        if kind == "spawn":
            self.spawn(a, b)
            return
        if kind == "age":
            self.now += a
            return
        if kind == "release":
            if self.held:
                self.manager.release(self.held.pop(a % len(self.held)))
            return
        if kind == "tick":
            self.tick()
            return
        thread = self.live(a)
        if thread is None:
            return
        if kind == "bind":
            bindings.bind_thread(thread, self.container(b), self.now)
        elif kind == "override":
            # Charge override: bind to a file's container for one op,
            # then restore the thread's own binding.
            home = thread.resource_binding
            bindings.bind_thread(thread, self.container(b), self.now)
            if home.alive:
                bindings.bind_thread(thread, home, self.now)
        elif kind == "reset":
            thread.scheduler_binding.reset_to(thread.resource_binding, self.now)
        elif kind == "exit":
            bindings.unbind_thread(thread)
            thread.exited = True

    def tick(self):
        if not self.full_scan:
            self.manager.bindings.prune_watched(self.now, AGE_US)
            return
        order = sorted(self.threads, key=lambda t: (t.process.pid, t.tid))
        for thread in order:
            if not thread.exited:
                thread.scheduler_binding.prune(
                    self.now, AGE_US, keep=thread.resource_binding
                )

    def snapshot(self):
        return [
            (t.tid, [c.cid for c in t.scheduler_binding._members.values()])
            for t in self.threads
        ]


def _random_op(rng):
    roll = rng.random()
    if roll < 0.08:
        return ("create", 0, 0)
    if roll < 0.18:
        return ("spawn", rng.randrange(6), rng.randrange(50))
    if roll < 0.40:
        return ("bind", rng.randrange(50), rng.randrange(50))
    if roll < 0.50:
        return ("override", rng.randrange(50), rng.randrange(50))
    if roll < 0.56:
        return ("reset", rng.randrange(50), 0)
    if roll < 0.60:
        return ("exit", rng.randrange(50), 0)
    if roll < 0.66:
        return ("release", rng.randrange(50), 0)
    if roll < 0.85:
        return ("age", rng.choice([1_000.0, 20_000.0, 60_000.0, 150_000.0]), 0)
    return ("tick", 0, 0)


@pytest.mark.parametrize("seed", range(12))
def test_watched_pass_matches_full_scan(seed):
    rng = random.Random(seed)
    watched, full = PruneWorld(False), PruneWorld(True)
    for world in (watched, full):
        for index in range(4):
            world.spawn(index % 3, index)
    ticks = 0
    for _ in range(600):
        op = _random_op(rng)
        watched.apply(op)
        full.apply(op)
        if op[0] == "tick":
            ticks += 1
            assert watched.log == full.log
            assert watched.snapshot() == full.snapshot()
    assert ticks > 50
    assert full.log  # the fuzz did prune something
