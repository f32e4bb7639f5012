"""The ResourceContainer object.

Lifecycle (paper section 4.6): a container is kept alive by descriptor
references (it is visible to applications as a file descriptor, inherited
across ``fork()``) and by thread resource bindings.  When the last of
either kind of reference disappears, the container is destroyed.  If a
parent container is destroyed, its children's parent is set to
"no parent" -- children do not keep parents alive.

We additionally count socket/file descriptor bindings as references: a
socket bound to a container charges kernel consumption to it, so letting
the container vanish underneath the socket would orphan those charges.
This is a (documented) strengthening of the paper's stated rules.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.core.attributes import ContainerAttributes, SchedClass
from repro.kernel.accounting import ResourceUsage
from repro.kernel.errors import ContainerPolicyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.state import SchedulerNodeState

#: Global hierarchy mutation epoch.  Bumped whenever anything that the
#: scheduler's derived caches depend on changes: a container's parent
#: link (create/reparent/destroy-detach) or its attribute record
#: (shares, priorities, limits).  Consumers (the scheduler's top-level
#: and weight caches, :class:`repro.core.hierarchy.HierarchyCache`)
#: compare the epoch against the one they last rebuilt at and flush on
#: mismatch -- mutation stays O(1), revalidation is paid lazily by the
#: reader.  The counter is process-global (shared by all simulated
#: hosts): cross-host bumps only cause spurious cache flushes, never
#: stale reads.
_hierarchy_epoch = 0

#: Global hierarchy *shape* epoch: the subset of mutations that can
#: change an **existing** container's derived scheduling keys -- its
#: top-level group, its cpu-limit ancestor chain, or its priority.
#: Those are attribute replacement on a live container and reparenting
#: (including the orphaning of children when a parent dies).  Creating
#: a fresh container, or destroying a leaf, bumps only the full epoch
#: above: no existing container's shape derivations move, so consumers
#: guarding their per-container memos and ready indexes on this counter
#: (:class:`repro.core.hierarchy.HierarchyCache`, the scheduler's
#: per-CPU ready shards) survive per-request principal churn without
#: O(n) rebuilds.  Weight caches must keep watching the full epoch:
#: a new top-level sibling does shift everyone's residual split.
#:
#: Invariant: every shape bump is also a full bump
#: (:func:`bump_shape_epoch` moves both), so a consumer whose full
#: epoch is current knows its shape epoch is current too, and can
#: guard both tiers with one integer compare.
_shape_epoch = 0


def hierarchy_epoch() -> int:
    """Current value of the global hierarchy mutation epoch."""
    return _hierarchy_epoch


def shape_epoch() -> int:
    """Current value of the global hierarchy *shape* epoch."""
    return _shape_epoch


def bump_hierarchy_epoch() -> None:
    """Invalidate every epoch-guarded hierarchy cache."""
    global _hierarchy_epoch
    _hierarchy_epoch += 1


def bump_shape_epoch() -> None:
    """Invalidate caches of existing containers' shape derivations.

    Bumps the full epoch as well: a shape change is a hierarchy change.
    """
    global _hierarchy_epoch, _shape_epoch
    _shape_epoch += 1
    _hierarchy_epoch += 1


class ContainerState(enum.Enum):
    """Lifecycle state of a container."""

    ACTIVE = "active"
    DESTROYED = "destroyed"


class ResourceContainer:
    """An explicit resource principal (paper section 4.1).

    Do not construct directly in application code; go through
    :class:`repro.core.operations.ContainerManager` (or the syscall
    layer), which maintains the hierarchy and reference counts.
    """

    __slots__ = (
        "cid",
        "name",
        "_attrs",
        "parent",
        "children",
        "usage",
        "state",
        "descriptor_refs",
        "thread_binding_refs",
        "object_binding_refs",
        "sched_state",
        "window_usage_us",
        "window_registry",
        "is_root",
        "acl",
    )

    def __init__(
        self,
        cid: int,
        name: str,
        attrs: Optional[ContainerAttributes] = None,
        parent: Optional["ResourceContainer"] = None,
        *,
        is_root: bool = False,
    ) -> None:
        self.cid = cid
        self.name = name
        # Initial attribute record: a brand-new container cannot change
        # any existing container's derivations, so bypass the setter's
        # shape bump (weight caches still flush via the full epoch).
        self._attrs = attrs if attrs is not None else ContainerAttributes()
        bump_hierarchy_epoch()
        self.parent: Optional[ResourceContainer] = None
        self.children: list[ResourceContainer] = []
        self.usage = ResourceUsage()
        self.state = ContainerState.ACTIVE
        #: Number of per-process descriptor-table entries referring here.
        self.descriptor_refs = 0
        #: Number of threads whose resource binding is this container.
        self.thread_binding_refs = 0
        #: Number of sockets/files bound here for charging.
        self.object_binding_refs = 0
        #: Opaque per-scheduler bookkeeping (pass values, etc.).
        self.sched_state: Optional["SchedulerNodeState"] = None
        #: CPU charged to this subtree in the current accounting window;
        #: maintained eagerly up the ancestor chain for cheap cap checks.
        self.window_usage_us = 0.0
        #: On a hierarchy's topmost node only: list of descendants (and
        #: itself) whose window accumulator went 0 -> positive since the
        #: last window roll.  Lets the roll reset exactly the containers
        #: that were charged instead of sweeping the whole tree.
        self.window_registry = None
        self.is_root = is_root
        #: Lazily created access-control list (see repro.core.security).
        self.acl = None
        if parent is not None:
            self.set_parent(parent, _fresh=True)

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------

    @property
    def attrs(self) -> ContainerAttributes:
        """The (immutable) attribute record; replacing it bumps the epoch."""
        return self._attrs

    @attrs.setter
    def attrs(self, value: ContainerAttributes) -> None:
        self._attrs = value
        bump_shape_epoch()

    # ------------------------------------------------------------------
    # Hierarchy
    # ------------------------------------------------------------------

    def set_parent(
        self, parent: Optional["ResourceContainer"], *, _fresh: bool = False
    ) -> None:
        """Attach this container under ``parent`` (or detach if None).

        Enforces the prototype's structural rules (section 5.1): only
        fixed-share containers may have children, and the parent must be
        alive.  Cycles are rejected.  ``_fresh`` marks the initial
        attach from the constructor, which cannot move any *existing*
        container's shape derivations and therefore skips the shape
        bump.
        """
        if self.is_root:
            raise ContainerPolicyError("the root container's parent is fixed")
        if parent is self.parent:
            return
        if parent is not None:
            if parent.state is ContainerState.DESTROYED:
                raise ContainerPolicyError(
                    f"cannot parent under destroyed container {parent.name!r}"
                )
            if (
                not parent.is_root
                and parent.attrs.sched_class is not SchedClass.FIXED_SHARE
            ):
                raise ContainerPolicyError(
                    "time-share containers cannot have children "
                    f"(parent {parent.name!r})"
                )
            node: Optional[ResourceContainer] = parent
            while node is not None:
                if node is self:
                    raise ContainerPolicyError(
                        f"setting parent of {self.name!r} to {parent.name!r} "
                        "would create a cycle"
                    )
                node = node.parent
        if self.parent is not None:
            self.parent.children.remove(self)
        self.parent = parent
        if parent is not None:
            parent.children.append(self)
        if _fresh:
            bump_hierarchy_epoch()
        else:
            bump_shape_epoch()
        if self.window_usage_us > 0.0:
            # A charged subtree moved under a (possibly) new top: make
            # sure the next window roll there still resets it.
            top = self
            while top.parent is not None:
                top = top.parent
            registry = top.window_registry
            if registry is None:
                registry = top.window_registry = []
            stack = [self]
            while stack:
                node = stack.pop()
                if node.window_usage_us > 0.0:
                    registry.append(node)
                    stack.extend(node.children)

    @property
    def is_leaf(self) -> bool:
        """True if the container has no children."""
        return not self.children

    @property
    def alive(self) -> bool:
        """True until the container is destroyed."""
        return self.state is ContainerState.ACTIVE

    # ------------------------------------------------------------------
    # Reference counting
    # ------------------------------------------------------------------

    @property
    def total_refs(self) -> int:
        """All live references of any kind."""
        return (
            self.descriptor_refs
            + self.thread_binding_refs
            + self.object_binding_refs
        )

    def ref_descriptor(self) -> None:
        """A descriptor-table entry now refers to this container."""
        self._check_alive()
        self.descriptor_refs += 1

    def ref_thread_binding(self) -> None:
        """A thread's resource binding now points here."""
        self._check_alive()
        self.thread_binding_refs += 1

    def ref_object_binding(self) -> None:
        """A socket/file is now bound here for charging."""
        self._check_alive()
        self.object_binding_refs += 1

    def unref_descriptor(self) -> bool:
        """Drop a descriptor reference; returns True if now unreferenced."""
        return self._unref("descriptor_refs")

    def unref_thread_binding(self) -> bool:
        """Drop a thread-binding reference; True if now unreferenced."""
        return self._unref("thread_binding_refs")

    def unref_object_binding(self) -> bool:
        """Drop an object-binding reference; True if now unreferenced."""
        return self._unref("object_binding_refs")

    def _unref(self, field: str) -> bool:
        count = getattr(self, field)
        if count <= 0:
            raise ContainerPolicyError(
                f"unbalanced unref of {field} on container {self.name!r}"
            )
        setattr(self, field, count - 1)
        return self.total_refs == 0

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------

    def charge_cpu(
        self, amount_us: float, *, network: bool = False, syscall: bool = False
    ) -> None:
        """Charge CPU time here and add it to every ancestor's window.

        Cumulative usage stays *direct* (per container); window usage is
        propagated up eagerly so that cap checks (``cpu_limit`` applies to
        the whole subtree) are O(depth) reads.
        """
        self.usage.charge_cpu(amount_us, network=network, syscall=syscall)
        node: ResourceContainer = self
        fresh: Optional[list[ResourceContainer]] = None
        while True:
            if node.window_usage_us == 0.0 and amount_us > 0.0:
                if fresh is None:
                    fresh = [node]
                else:
                    fresh.append(node)
            node.window_usage_us += amount_us
            if node.parent is None:
                break
            node = node.parent
        if fresh is not None:
            registry = node.window_registry
            if registry is None:
                registry = node.window_registry = []
            registry.extend(fresh)

    def reset_window(self) -> None:
        """Zero this container's window accumulator (scheduler epoch roll)."""
        self.window_usage_us = 0.0

    def _check_alive(self) -> None:
        if self.state is ContainerState.DESTROYED:
            raise ContainerPolicyError(
                f"operation on destroyed container {self.name!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parent = self.parent.name if self.parent else None
        return (
            f"ResourceContainer(cid={self.cid}, name={self.name!r}, "
            f"parent={parent!r}, refs={self.total_refs}, {self.state.value})"
        )
