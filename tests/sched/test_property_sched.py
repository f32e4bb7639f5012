"""Property-based scheduler tests (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import fixed_share_attrs, timeshare_attrs
from repro.core.operations import ContainerManager
from repro.sched.container_sched import ContainerScheduler

from tests.sched.oracle import VolatileFake, run


@given(
    shares=st.lists(
        st.floats(0.05, 0.4), min_size=2, max_size=4
    ).filter(lambda s: sum(s) <= 1.0)
)
@settings(max_examples=25, deadline=None)
def test_fixed_shares_proportional_under_saturation(shares):
    """Stride scheduling delivers shares proportional to guarantees for
    always-runnable entities (the section 5.8 exactness property)."""
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root)
    for index, share in enumerate(shares):
        container = manager.create(f"g{index}", attrs=fixed_share_attrs(share))
        sched.attach(VolatileFake(f"e{index}", container))
    usage = run(sched, 600)
    total = sum(usage.values())
    assert total > 0
    for index, share in enumerate(shares):
        observed = usage[f"e{index}"] / total
        expected = share / sum(shares)
        assert abs(observed - expected) < 0.08


@given(n=st.integers(2, 8))
@settings(max_examples=20, deadline=None)
def test_no_starvation_within_priority_layer(n):
    """Every runnable entity in one layer eventually runs."""
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root)
    for index in range(n):
        container = manager.create(f"c{index}", attrs=timeshare_attrs())
        sched.attach(VolatileFake(f"e{index}", container))
    usage = run(sched, n * 30)
    assert all(value > 0 for value in usage.values())


@given(
    limit=st.floats(0.1, 0.5),
    steps=st.integers(100, 400),
)
@settings(max_examples=20, deadline=None)
def test_cpu_limit_never_exceeded_per_window(limit, steps):
    """A capped subtree never exceeds limit*window inside any window."""
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root, quantum_us=500.0, window_us=10_000.0)
    capped = manager.create(
        "capped", attrs=fixed_share_attrs(limit, cpu_limit=limit)
    )
    leaf = manager.create("leaf", parent=capped)
    entity = VolatileFake("e", leaf)
    sched.attach(entity)
    now = 0.0
    quantum = 500.0
    for _ in range(steps):
        picked = sched.pick_for_cpu(now, 0)
        if picked is not None:
            leaf.charge_cpu(quantum)
            sched.charge(picked, leaf, quantum, now)
            sched.on_slice_end(picked, now)
            # Within-window cap: usage may overshoot by at most one
            # quantum (the slice in flight when the cap was crossed).
            assert capped.window_usage_us <= limit * 10_000.0 + quantum + 1e-6
        now += quantum
        if now % 10_000.0 < quantum:
            sched.window_roll(now)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_pick_is_deterministic(seed):
    """Identical construction gives identical pick sequences."""

    def sequence():
        manager = ContainerManager()
        sched = ContainerScheduler(manager.root)
        entities = [
            VolatileFake(f"e{i}", manager.create(f"c{i}")) for i in range(4)
        ]
        for entity in entities:
            sched.attach(entity)
        names = []
        now = 0.0
        for _ in range(50):
            picked = sched.pick_for_cpu(now, 0)
            names.append(picked.name)
            sched.charge(picked, picked.container, 1000.0, now)
            picked.container.charge_cpu(1000.0)
            sched.on_slice_end(picked, now)
            now += 1000.0
        return names

    assert sequence() == sequence()
