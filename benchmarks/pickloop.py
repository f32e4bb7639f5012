"""Scheduler pick-loop microbenchmark for the tier-2 perf smokes.

Drives :class:`ContainerScheduler` directly -- no kernel, no network --
through the dispatcher's protocol: ``pick_for_cpu``, ``charge``,
``on_slice_end`` and ``window_roll``.  The smokes compare two points
measured back to back in one process, so machine speed cancels out of
the ratio; there is no recorded baseline.
"""

from __future__ import annotations

import time

from repro.core.attributes import fixed_share_attrs, timeshare_attrs
from repro.core.operations import ContainerManager
from repro.sched.container_sched import ContainerScheduler

#: One per-request principal is created and released every this many
#: picks when the loop is given a manager (principal churn).
CHURN_EVERY = 64

#: Top-level groups in :func:`build_hierarchy`.
GROUPS = 10

#: Picks per timed loop, warmup picks, and timed loops per measurement.
PICKS = 2_000
WARMUP = 200
REPEATS = 3


class BenchEntity:
    """Minimal Schedulable with a fixed charge container.

    Declares ``sched_push_notify`` so the scheduler indexes it: its key
    (binding, priority) never changes and it never leaves the runnable
    state.
    """

    sched_push_notify = True

    __slots__ = ("name", "container", "runnable", "sched_note_change")

    def __init__(self, name, container) -> None:
        self.name = name
        self.container = container
        self.runnable = True
        self.sched_note_change = None

    def charge_container(self):
        return self.container

    def scheduler_priority(self):
        return self.container.attrs.numeric_priority


def _scheduler(manager, n_cpus: int) -> ContainerScheduler:
    return ContainerScheduler(
        manager.root, quantum_us=1_000.0, window_us=10_000.0, n_cpus=n_cpus
    )


def build_hierarchy(leaves: int):
    """A one-CPU scheduler with one entity per time-share leaf.

    ``GROUPS`` fixed-share top-level containers each hold
    ``leaves/GROUPS`` leaves; with no more leaves than groups the
    leaves sit directly under the root.
    """
    manager = ContainerManager()
    sched = _scheduler(manager, 1)
    if leaves <= GROUPS:
        parents = [manager.root] * leaves
    else:
        parents = []
        for g in range(GROUPS):
            group = manager.create(f"grp{g}", attrs=fixed_share_attrs(0.9 / GROUPS))
            parents.extend([group] * (leaves // GROUPS))
    for i, parent in enumerate(parents):
        leaf = manager.create(
            f"leaf{i}", attrs=timeshare_attrs(weight=1.0 + i % 3), parent=parent
        )
        sched.attach(BenchEntity(f"e{i}", leaf))
    return manager, sched


def build_flat(leaves: int, n_cpus: int):
    """A flat field of time-share principals directly under the root --
    the shape a server's per-request containers take -- with one
    :class:`BenchEntity` each."""
    manager = ContainerManager()
    sched = _scheduler(manager, n_cpus)
    for i in range(leaves):
        leaf = manager.create(f"req{i}", attrs=timeshare_attrs(weight=1.0 + i % 3))
        sched.attach(BenchEntity(f"e{i}", leaf))
    return manager, sched


def run_pick_loop(sched, picks: int, manager=None, now: float = 0.0) -> float:
    """Staggered per-core slices; returns the simulated time reached.

    Pick ``i`` ends the running slice on core ``i % n_cpus`` (charge +
    ``on_slice_end``) and picks that core's next entity, advancing time
    by ``quantum / n_cpus``, so every core stays busy.  With a
    ``manager``, a principal is created and released every
    ``CHURN_EVERY`` picks.  Slices still running at the end are handed
    back, so consecutive loops see every entity.
    """
    n_cpus = sched.n_cpus
    quantum = sched.quantum_us
    step = quantum / n_cpus
    next_roll = sched.window_us * (int(now // sched.window_us) + 1)
    running = [None] * n_cpus
    for i in range(picks + n_cpus):
        core = i % n_cpus
        prev = running[core]
        if prev is not None:
            container = prev.charge_container()
            container.charge_cpu(quantum)
            sched.charge(prev, container, quantum, now)
            sched.on_slice_end(prev, now)
        if i >= picks:
            continue
        running[core] = sched.pick_for_cpu(now, core)
        now += step
        if now >= next_roll:
            sched.window_roll(now)
            next_roll += sched.window_us
        if manager is not None and (i + 1) % CHURN_EVERY == 0:
            manager.release(manager.create("burst"))
    return now


def us_per_pick(sched, manager=None) -> float:
    """Best-of-``REPEATS`` wall microseconds per pick, after a warmup."""
    now = run_pick_loop(sched, WARMUP, manager)
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        now = run_pick_loop(sched, PICKS, manager, now)
        best = min(best, time.perf_counter() - started)
    return best * 1e6 / PICKS
