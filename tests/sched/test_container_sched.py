"""ContainerScheduler policy behaviour (strict layers, stride, caps)."""

import pytest

from repro.core.attributes import fixed_share_attrs, timeshare_attrs
from repro.core.operations import ContainerManager
from repro.sched.container_sched import ContainerScheduler
from tests.sched.oracle import VolatileFake, run


@pytest.fixture
def setup():
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root, quantum_us=1000.0, window_us=10_000.0)
    return manager, sched


def test_equal_weights_share_equally(setup):
    manager, sched = setup
    for i in range(3):
        c = manager.create(f"p{i}", attrs=timeshare_attrs())
        sched.attach(VolatileFake(f"e{i}", c))
    usage = run(sched, 300)
    values = list(usage.values())
    assert max(values) - min(values) <= 2000.0  # within two quanta


def test_fixed_shares_respected(setup):
    manager, sched = setup
    heavy = manager.create("heavy", attrs=fixed_share_attrs(0.75))
    light = manager.create("light", attrs=fixed_share_attrs(0.25))
    a = VolatileFake("a", heavy)
    b = VolatileFake("b", light)
    sched.attach(a)
    sched.attach(b)
    usage = run(sched, 400)
    total = usage["a"] + usage["b"]
    assert usage["a"] / total == pytest.approx(0.75, abs=0.05)


def test_strict_priority_layers(setup):
    manager, sched = setup
    high = manager.create("high", attrs=timeshare_attrs(priority=9))
    low = manager.create("low", attrs=timeshare_attrs(priority=1))
    a = VolatileFake("a", high)
    b = VolatileFake("b", low)
    sched.attach(a)
    sched.attach(b)
    usage = run(sched, 100)
    assert usage["a"] == pytest.approx(100 * 1000.0)
    assert usage["b"] == 0.0


def test_priority_zero_runs_only_when_idle(setup):
    manager, sched = setup
    blackhole = manager.create("bh", attrs=timeshare_attrs(priority=0))
    normal = manager.create("n", attrs=timeshare_attrs(priority=4))
    zero = VolatileFake("zero", blackhole)
    busy = VolatileFake("busy", normal)
    sched.attach(zero)
    sched.attach(busy)
    assert sched.pick_for_cpu(0.0, 0) is busy
    busy.runnable = False
    assert sched.pick_for_cpu(0.0, 0) is zero


def test_cpu_limit_throttles_within_window(setup):
    manager, sched = setup
    capped = manager.create(
        "capped", attrs=fixed_share_attrs(0.3, cpu_limit=0.3)
    )
    leaf = manager.create("leaf", parent=capped)
    entity = VolatileFake("e", leaf)
    sched.attach(entity)
    # Burn 30% of the window.
    leaf.charge_cpu(3_000.0)
    assert sched.capped_out(leaf)
    assert sched.pick_for_cpu(0.0, 0) is None
    sched.window_roll(10_000.0)
    assert sched.pick_for_cpu(10_000.0, 0) is entity


def test_cap_applies_to_whole_subtree(setup):
    manager, sched = setup
    capped = manager.create("capped", attrs=fixed_share_attrs(0.3, cpu_limit=0.3))
    leaf_a = manager.create("a", parent=capped)
    leaf_b = manager.create("b", parent=capped)
    leaf_a.charge_cpu(3_000.0)  # sibling consumed the whole budget
    assert sched.capped_out(leaf_b)


def test_round_robin_within_group_ignores_history(setup):
    """A thread that consumed heavily elsewhere still gets its turn when
    it joins a group (the fig12 CGI-dispatch starvation regression)."""
    manager, sched = setup
    group = manager.create("grp", attrs=fixed_share_attrs(0.5))
    leaf1 = manager.create("l1", parent=group)
    leaf2 = manager.create("l2", parent=group)
    hog = VolatileFake("hog", leaf1)
    newcomer = VolatileFake("new", leaf2)
    sched.attach(hog)
    sched.attach(newcomer)
    # Hog runs alone for a long time.
    newcomer.runnable = False
    run(sched, 200)
    newcomer.runnable = True
    sched.on_wakeup(newcomer, 0.0)  # volatile entities announce wakeups
    first = sched.pick_for_cpu(0.0, 0)
    assert first is newcomer  # least-recently-ran wins immediately


def test_group_vtime_clamp_prevents_monopoly(setup):
    """A group idle for a long time must not monopolise on wake-up."""
    manager, sched = setup
    active = manager.create("active", attrs=timeshare_attrs())
    sleeper = manager.create("sleeper", attrs=timeshare_attrs())
    a = VolatileFake("a", active)
    s = VolatileFake("s", sleeper)
    sched.attach(a)
    sched.attach(s)
    s.runnable = False
    run(sched, 500)
    s.runnable = True
    sched.on_wakeup(s, 0.0)
    usage = run(sched, 100)
    # Roughly alternating after wake-up, not 100 slices to the sleeper.
    assert usage["a"] >= 40 * 1000.0


def test_detach_forgets_entity(setup):
    manager, sched = setup
    c = manager.create("c")
    entity = VolatileFake("e", c)
    sched.attach(entity)
    sched.detach(entity)
    assert sched.pick_for_cpu(0.0, 0) is None


def test_group_weight_residual_split(setup):
    manager, sched = setup
    fixed = manager.create("fixed", attrs=fixed_share_attrs(0.4))
    ts1 = manager.create("ts1", attrs=timeshare_attrs(weight=2.0))
    ts2 = manager.create("ts2", attrs=timeshare_attrs(weight=1.0))
    assert sched.group_weight(fixed) == pytest.approx(0.4)
    assert sched.group_weight(ts1) == pytest.approx(0.6 * 2 / 3)
    assert sched.group_weight(ts2) == pytest.approx(0.6 / 3)


def test_scheduler_binding_priority_combines(setup):
    manager, sched = setup
    low = manager.create("low", attrs=timeshare_attrs(priority=1))
    high = manager.create("high", attrs=timeshare_attrs(priority=9))
    other = manager.create("other", attrs=timeshare_attrs(priority=5))
    multiplexed = VolatileFake("mux", low, sched_containers=[low, high])
    plain = VolatileFake("plain", other)
    sched.attach(multiplexed)
    sched.attach(plain)
    # mux charges 'low' but its combined priority (9) beats plain's 5.
    assert sched.pick_for_cpu(0.0, 0) is multiplexed
