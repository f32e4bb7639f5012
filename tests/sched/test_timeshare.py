"""Decay-usage scheduler behaviour."""

import pytest

from repro.core.operations import ContainerManager
from repro.sched.timeshare import UnixTimeshareScheduler

from tests.sched.oracle import VolatileFake


@pytest.fixture
def setup():
    manager = ContainerManager()
    sched = UnixTimeshareScheduler(quantum_us=1000.0)
    return manager, sched


def test_lowest_usage_runs_first(setup):
    manager, sched = setup
    a = VolatileFake("a", manager.create("a"))
    b = VolatileFake("b", manager.create("b"))
    sched.attach(a)
    sched.attach(b)
    sched.charge(a, a.container, 5_000.0, 0.0)
    assert sched.pick_for_cpu(0.0, 0) is b


def test_usage_decays_over_time(setup):
    manager, sched = setup
    a = VolatileFake("a", manager.create("a"))
    sched.attach(a)
    sched.charge(a, a.container, 8_000.0, 0.0)
    early = sched.decayed_usage(a, 0.0)
    late = sched.decayed_usage(a, 2_000_000.0)  # two half-lives
    assert late == pytest.approx(early / 4.0, rel=0.01)


def test_equal_usage_alternates_fairly(setup):
    manager, sched = setup
    a = VolatileFake("a", manager.create("a"))
    b = VolatileFake("b", manager.create("b"))
    sched.attach(a)
    sched.attach(b)
    usage = {"a": 0.0, "b": 0.0}
    now = 0.0
    for _ in range(100):
        entity = sched.pick_for_cpu(now, 0)
        sched.charge(entity, entity.container, 1000.0, now)
        usage[entity.name] += 1000.0
        now += 1000.0
    assert usage["a"] == pytest.approx(usage["b"], abs=2000.0)


def test_blocked_entities_skipped(setup):
    manager, sched = setup
    a = VolatileFake("a", manager.create("a"))
    sched.attach(a)
    a.runnable = False
    assert sched.pick_for_cpu(0.0, 0) is None


def test_detach_cleans_state(setup):
    manager, sched = setup
    a = VolatileFake("a", manager.create("a"))
    sched.attach(a)
    sched.charge(a, a.container, 100.0, 0.0)
    sched.detach(a)
    assert sched.pick_for_cpu(0.0, 0) is None
