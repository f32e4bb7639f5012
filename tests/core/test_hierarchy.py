"""Hierarchy traversal helpers and invariants."""

import pytest

from repro.core.attributes import fixed_share_attrs
from repro.core.container import ResourceContainer
from repro.core.hierarchy import (
    ancestors_and_self,
    depth_of,
    effective_cpu_limit,
    iter_subtree,
    root_of,
    subtree_usage,
    top_level_of,
    validate_hierarchy,
)
from repro.kernel.errors import ContainerPolicyError


@pytest.fixture
def tree():
    root = ResourceContainer(1, "<root>", is_root=True)
    guest = ResourceContainer(
        2, "guest", attrs=fixed_share_attrs(0.5, cpu_limit=0.5), parent=root
    )
    cgi_parent = ResourceContainer(
        3, "cgi", attrs=fixed_share_attrs(0.3, cpu_limit=0.3), parent=guest
    )
    leaf_a = ResourceContainer(4, "a", parent=cgi_parent)
    leaf_b = ResourceContainer(5, "b", parent=guest)
    return root, guest, cgi_parent, leaf_a, leaf_b


def test_ancestors_and_self(tree):
    root, guest, cgi_parent, leaf_a, _ = tree
    chain = list(ancestors_and_self(leaf_a))
    assert chain == [leaf_a, cgi_parent, guest, root]


def test_root_of(tree):
    root, _guest, _cgi, leaf_a, _ = tree
    assert root_of(leaf_a) is root
    assert root_of(root) is root


def test_top_level_of(tree):
    root, guest, _cgi, leaf_a, leaf_b = tree
    assert top_level_of(leaf_a) is guest
    assert top_level_of(leaf_b) is guest
    assert top_level_of(guest) is guest


def test_iter_subtree_covers_everything(tree):
    root, *_rest = tree
    names = {c.name for c in iter_subtree(root)}
    assert names == {"<root>", "guest", "cgi", "a", "b"}


def test_depth(tree):
    root, guest, cgi_parent, leaf_a, _ = tree
    assert depth_of(root) == 0
    assert depth_of(guest) == 1
    assert depth_of(leaf_a) == 3


def test_subtree_usage_aggregates(tree):
    _root, guest, cgi_parent, leaf_a, leaf_b = tree
    leaf_a.usage.charge_cpu(10.0)
    leaf_b.usage.charge_cpu(5.0)
    cgi_parent.usage.charge_cpu(1.0)
    total = subtree_usage(guest)
    assert total.cpu_us == 16.0


def test_effective_cpu_limit_takes_tightest(tree):
    _root, _guest, _cgi, leaf_a, leaf_b = tree
    assert effective_cpu_limit(leaf_a) == 0.3
    assert effective_cpu_limit(leaf_b) == 0.5


def test_validate_accepts_good_tree(tree):
    root, *_ = tree
    validate_hierarchy(root)


def test_validate_rejects_oversubscription():
    root = ResourceContainer(1, "<root>", is_root=True)
    ResourceContainer(2, "a", attrs=fixed_share_attrs(0.7), parent=root)
    ResourceContainer(3, "b", attrs=fixed_share_attrs(0.6), parent=root)
    with pytest.raises(ContainerPolicyError):
        validate_hierarchy(root)


def test_validate_rejects_broken_parent_link(tree):
    root, guest, *_ = tree
    guest.children[0].parent = None  # corrupt on purpose
    with pytest.raises(ContainerPolicyError):
        validate_hierarchy(root)
