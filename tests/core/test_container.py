"""ResourceContainer structure, references, and charging."""

import pytest

from repro.core.attributes import fixed_share_attrs, timeshare_attrs
from repro.core import container as container_mod
from repro.core.container import (
    ContainerState,
    ResourceContainer,
    hierarchy_epoch,
    shape_epoch,
)
from repro.kernel.errors import ContainerPolicyError


def make_root(cid=1):
    return ResourceContainer(cid, "<root>", is_root=True)


def test_parent_child_links():
    root = make_root()
    child = ResourceContainer(2, "c", parent=root)
    assert child.parent is root
    assert child in root.children


def test_timeshare_container_cannot_have_children():
    root = make_root()
    ts_parent = ResourceContainer(2, "ts", attrs=timeshare_attrs(), parent=root)
    with pytest.raises(ContainerPolicyError):
        ResourceContainer(3, "kid", parent=ts_parent)


def test_fixed_share_container_can_have_children():
    root = make_root()
    fs_parent = ResourceContainer(
        2, "fs", attrs=fixed_share_attrs(0.5), parent=root
    )
    kid = ResourceContainer(3, "kid", parent=fs_parent)
    assert kid.parent is fs_parent


def test_cycle_rejected():
    root = make_root()
    a = ResourceContainer(2, "a", attrs=fixed_share_attrs(0.5), parent=root)
    b = ResourceContainer(3, "b", attrs=fixed_share_attrs(0.5), parent=a)
    with pytest.raises(ContainerPolicyError):
        a.set_parent(b)


def test_self_parent_rejected():
    root = make_root()
    a = ResourceContainer(2, "a", attrs=fixed_share_attrs(0.5), parent=root)
    with pytest.raises(ContainerPolicyError):
        a.set_parent(a)


def test_root_parent_immutable():
    root = make_root()
    other = make_root(cid=2)
    with pytest.raises(ContainerPolicyError):
        root.set_parent(other)


def test_reparent_moves_child_lists():
    root = make_root()
    a = ResourceContainer(2, "a", attrs=fixed_share_attrs(0.4), parent=root)
    b = ResourceContainer(3, "b", attrs=fixed_share_attrs(0.4), parent=root)
    c = ResourceContainer(4, "c", parent=a)
    c.set_parent(b)
    assert c not in a.children
    assert c in b.children


def test_detach_to_no_parent():
    root = make_root()
    c = ResourceContainer(2, "c", parent=root)
    c.set_parent(None)
    assert c.parent is None
    assert c not in root.children


def test_reference_counting_totals():
    c = ResourceContainer(1, "c")
    c.ref_descriptor()
    c.ref_thread_binding()
    c.ref_object_binding()
    assert c.total_refs == 3
    assert not c.unref_descriptor()
    assert not c.unref_thread_binding()
    assert c.unref_object_binding()  # last one reports unreferenced


def test_unbalanced_unref_raises():
    c = ResourceContainer(1, "c")
    with pytest.raises(ContainerPolicyError):
        c.unref_descriptor()


def test_charge_propagates_window_to_ancestors():
    root = make_root()
    parent = ResourceContainer(2, "p", attrs=fixed_share_attrs(0.5), parent=root)
    leaf = ResourceContainer(3, "leaf", parent=parent)
    leaf.charge_cpu(10.0)
    assert leaf.window_usage_us == 10.0
    assert parent.window_usage_us == 10.0
    assert root.window_usage_us == 10.0
    # Cumulative usage stays direct.
    assert leaf.usage.cpu_us == 10.0
    assert parent.usage.cpu_us == 0.0


def test_reset_window_is_local():
    root = make_root()
    leaf = ResourceContainer(2, "leaf", parent=root)
    leaf.charge_cpu(5.0)
    leaf.reset_window()
    assert leaf.window_usage_us == 0.0
    assert root.window_usage_us == 5.0  # parent reset separately


def test_destroyed_container_rejects_operations():
    c = ResourceContainer(1, "c")
    c.state = ContainerState.DESTROYED
    with pytest.raises(ContainerPolicyError):
        c.ref_descriptor()


def test_network_charge_categories():
    c = ResourceContainer(1, "c")
    c.charge_cpu(7.0, network=True)
    c.charge_cpu(3.0, syscall=True)
    assert c.usage.cpu_us == 10.0
    assert c.usage.cpu_network_us == 7.0
    assert c.usage.cpu_syscall_us == 3.0


def _epochs():
    return hierarchy_epoch(), shape_epoch()


def test_every_shape_bump_moves_the_full_epoch():
    """The scheduler guards its shape-tier caches with one compare on
    the full epoch, which is sound only if a shape bump moves both."""
    root = make_root()
    parent = ResourceContainer(2, "p", attrs=fixed_share_attrs(0.5), parent=root)
    child = ResourceContainer(3, "c", parent=root)
    mutations = [
        container_mod.bump_shape_epoch,
        lambda: setattr(child, "attrs", timeshare_attrs(priority=2)),
        lambda: child.set_parent(parent),
        lambda: child.set_parent(None),
    ]
    for mutate in mutations:
        full, shape = _epochs()
        mutate()
        assert hierarchy_epoch() != full
        assert shape_epoch() != shape


def test_fresh_container_moves_only_the_full_epoch():
    root = make_root()
    full, shape = _epochs()
    ResourceContainer(2, "fresh", parent=root)
    assert hierarchy_epoch() != full
    assert shape_epoch() == shape
