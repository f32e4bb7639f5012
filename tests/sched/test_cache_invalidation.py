"""Scheduler cache invalidation under hierarchy and attribute mutation.

The indexed scheduler memoizes top-level groups, group weights, and
limit chains, and keeps push-notify entities in ready queues keyed by
(priority, group).  Every mutation channel -- reparenting, attribute
replacement through the manager, rebinding, binding-set changes -- must
be reflected in the very next ``pick_for_cpu()``/``group_weight()``
call, with no stale cache residue.  ``pick_for_cpu`` dequeues a
push-notify winner, so each single-pick check hands it back with
``on_slice_end`` before the next one.
"""

import pytest

from repro.core.attributes import fixed_share_attrs, timeshare_attrs
from repro.core.operations import ContainerManager
from repro.sched.container_sched import ContainerScheduler
from tests.sched.oracle import BoundFake, IndexedFake, run


@pytest.fixture
def setup():
    manager = ContainerManager()
    sched = ContainerScheduler(manager.root, quantum_us=1000.0, window_us=10_000.0)
    return manager, sched


def test_priority_change_reflected_in_next_pick(setup):
    manager, sched = setup
    high = manager.create("high", attrs=timeshare_attrs(priority=9))
    low = manager.create("low", attrs=timeshare_attrs(priority=1))
    a = IndexedFake("a", high)
    b = IndexedFake("b", low)
    sched.attach(a)
    sched.attach(b)
    assert sched.pick_for_cpu(0.0, 0) is a
    sched.on_slice_end(a, 0.0)
    # Invert the priorities mid-run through the manager.
    manager.set_attributes(high, timeshare_attrs(priority=1))
    manager.set_attributes(low, timeshare_attrs(priority=9))
    assert sched.pick_for_cpu(0.0, 0) is b


def test_share_change_shifts_allocation_mid_run(setup):
    manager, sched = setup
    big = manager.create("big", attrs=fixed_share_attrs(0.75))
    small = manager.create("small", attrs=fixed_share_attrs(0.25))
    a = IndexedFake("a", big)
    b = IndexedFake("b", small)
    sched.attach(a)
    sched.attach(b)
    first = run(sched, 200)
    assert first["a"] > first["b"]
    # Swap the shares; the stride weights must re-resolve immediately.
    manager.set_attributes(big, fixed_share_attrs(0.25))
    manager.set_attributes(small, fixed_share_attrs(0.75))
    second = run(sched, 200, start=200_000.0)
    assert second["b"] / (second["a"] + second["b"]) == pytest.approx(0.75, abs=0.08)


def test_cpu_limit_added_mid_run_takes_effect(setup):
    manager, sched = setup
    c = manager.create("c", attrs=fixed_share_attrs(0.5))
    entity = IndexedFake("e", c)
    sched.attach(entity)
    c.charge_cpu(3_000.0)
    assert not sched.capped_out(c)
    assert sched.pick_for_cpu(0.0, 0) is entity
    sched.on_slice_end(entity, 0.0)
    # Impose a 30% window cap; the 30% already burned exhausts it.
    manager.set_attributes(c, fixed_share_attrs(0.5, cpu_limit=0.3))
    assert sched.capped_out(c)
    assert sched.pick_for_cpu(0.0, 0) is None
    # Lifting the cap restores the entity without a window roll.
    manager.set_attributes(c, fixed_share_attrs(0.5))
    assert sched.pick_for_cpu(0.0, 0) is entity


def test_reparent_moves_entity_to_new_top_level_group(setup):
    manager, sched = setup
    strong = manager.create("strong", attrs=fixed_share_attrs(0.8))
    weak = manager.create("weak", attrs=fixed_share_attrs(0.2))
    leaf = manager.create("leaf", parent=weak)
    mover = IndexedFake("m", leaf)
    rival = IndexedFake("r", strong)
    sched.attach(mover)
    sched.attach(rival)
    before = run(sched, 200)
    assert before["r"] > before["m"]  # charged to the 0.2 group
    # Reparent the leaf under the strong group: both entities now draw
    # from the same 0.8 container and must round-robin evenly.
    manager.set_parent(leaf, strong)
    after = run(sched, 200, start=200_000.0)
    assert after["m"] == pytest.approx(after["r"], abs=2_000.0)


def test_reparent_under_capped_parent_throttles(setup):
    manager, sched = setup
    capped = manager.create("capped", attrs=fixed_share_attrs(0.3, cpu_limit=0.3))
    free = manager.create("free", attrs=fixed_share_attrs(0.7))
    leaf = manager.create("leaf", parent=free)
    entity = IndexedFake("e", leaf)
    sched.attach(entity)
    capped.charge_cpu(3_000.0)  # cap budget already spent
    assert sched.pick_for_cpu(0.0, 0) is entity  # not under the cap yet
    sched.on_slice_end(entity, 0.0)
    manager.set_parent(leaf, capped)
    # The cached limit chain must be rebuilt: leaf now inherits the cap.
    assert sched.capped_out(leaf)
    assert sched.pick_for_cpu(0.0, 0) is None


def test_rebind_changes_layer_immediately(setup):
    manager, sched = setup
    high = manager.create("high", attrs=timeshare_attrs(priority=9))
    low = manager.create("low", attrs=timeshare_attrs(priority=1))
    mid = manager.create("mid", attrs=timeshare_attrs(priority=5))
    mover = IndexedFake("m", low)
    steady = IndexedFake("s", mid)
    sched.attach(mover)
    sched.attach(steady)
    assert sched.pick_for_cpu(0.0, 0) is steady
    sched.on_slice_end(steady, 0.0)
    mover.container = high  # fires sched_note_change
    assert sched.pick_for_cpu(0.0, 0) is mover


def test_group_weight_re_resolves_after_share_change(setup):
    """Regression: memoized weights must flush on attribute replacement."""
    manager, sched = setup
    fixed = manager.create("fixed", attrs=fixed_share_attrs(0.4))
    ts = manager.create("ts", attrs=timeshare_attrs(weight=1.0))
    assert sched.group_weight(fixed) == pytest.approx(0.4)
    assert sched.group_weight(ts) == pytest.approx(0.6)
    manager.set_attributes(fixed, fixed_share_attrs(0.1))
    assert sched.group_weight(fixed) == pytest.approx(0.1)
    assert sched.group_weight(ts) == pytest.approx(0.9)


def test_group_weight_re_resolves_after_sibling_created(setup):
    manager, sched = setup
    ts1 = manager.create("ts1", attrs=timeshare_attrs(weight=1.0))
    assert sched.group_weight(ts1) == pytest.approx(1.0)
    manager.create("ts2", attrs=timeshare_attrs(weight=1.0))
    assert sched.group_weight(ts1) == pytest.approx(0.5)


# The scheduler memoizes each indexed entity's (priority, group) key.
# Each case below changes the key of an entity whose memo is warm, and
# the very next pick must see the new layer.  ``mid`` (priority 5) is
# the steady rival; the mover starts at priority 1 or 9.


def _rebind(manager, mover, layers):
    mover.container = layers["high"]  # fires sched_note_change


def _binding_add(manager, mover, layers):
    mover.scheduler_binding.observe(layers["high"], 1.0)  # fires on_change


def _binding_prune(manager, mover, layers):
    # Ages out everything but the current resource binding (low).
    mover.scheduler_binding.prune(10_000.0, max_age_us=1.0, keep=layers["low"])


def _member_destroyed(manager, mover, layers):
    # ``members()`` drops a dead container without firing on_change;
    # only the destroy's epoch bump can invalidate the memo.
    manager.release(layers["high"])


_KEY_CHANGES = [
    # (mutation, mover type, starts in the high layer, ends in it)
    ("rebind", _rebind, IndexedFake, False, True),
    ("binding-add", _binding_add, BoundFake, False, True),
    ("binding-prune", _binding_prune, BoundFake, True, False),
    ("member-destroyed", _member_destroyed, BoundFake, True, False),
]


@pytest.mark.parametrize(
    "mutate,mover_cls,start_high,ends_high,phase",
    [
        pytest.param(*case[1:], phase, id=f"{case[0]}-{phase}")
        for case in _KEY_CHANGES
        for phase in ("queued", "running")
        # A queued entry keeps its layer until it is re-queued, and a
        # silent member death re-queues nothing.
        if not (case[0] == "member-destroyed" and phase == "queued")
    ],
)
def test_memoized_key_sees_the_new_layer(
    setup, mutate, mover_cls, start_high, ends_high, phase
):
    manager, sched = setup
    layers = {
        "low": manager.create("low", attrs=timeshare_attrs(priority=1)),
        "high": manager.create("high", attrs=timeshare_attrs(priority=9)),
    }
    mid = manager.create("mid", attrs=timeshare_attrs(priority=5))
    mover = mover_cls("m", layers["low"])
    if start_high:
        mover.scheduler_binding.observe(layers["high"], 0.0)
    steady = IndexedFake("s", mid)
    sched.attach(mover)
    sched.attach(steady)
    first = mover if start_high else steady
    assert sched.pick_for_cpu(0.0, 0) is first  # memo warm, layer as built
    sched.on_slice_end(first, 0.0)
    if phase == "queued":
        mutate(manager, mover, layers)
    else:
        # Mutate while the mover runs; on_slice_end re-queues it.
        assert sched.pick_for_cpu(0.0, 0, {id(steady)}) is mover
        mutate(manager, mover, layers)
        sched.on_slice_end(mover, 0.0)
    assert sched.pick_for_cpu(1.0, 0) is (mover if ends_high else steady)
