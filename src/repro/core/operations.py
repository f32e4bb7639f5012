"""The section-4.6 operation set, as a kernel-side manager.

:class:`ContainerManager` owns the container namespace of one simulated
host: the root container, creation and destruction, parent changes,
descriptor-style reference management, attribute access, and usage
queries.  The syscall layer charges the Table 1 CPU costs and then calls
in here for the semantics; unit tests call the manager directly.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from repro.core.attributes import ContainerAttributes, SchedClass
from repro.core.binding import BindingManager
from repro.core.container import (
    ContainerState,
    ResourceContainer,
    bump_hierarchy_epoch,
)
from repro.core.hierarchy import subtree_usage
from repro.kernel.accounting import ResourceUsage
from repro.kernel.errors import ContainerPolicyError


class ContainerManager:
    """Creates, tracks, and destroys the containers of one host.

    ``cids`` is the id stream new containers draw from: a kernel passes
    its simulation's ``id_stream("cid")`` (shared by every host on that
    engine); a standalone manager numbers its own containers from 1.
    """

    def __init__(self, cids: Optional[Iterator[int]] = None) -> None:
        self._cids = cids if cids is not None else itertools.count(1)
        self.root = ResourceContainer(next(self._cids), "<root>", is_root=True)
        # The root is permanently referenced; it can never be destroyed.
        self.root.ref_descriptor()
        self._by_id: dict[int, ResourceContainer] = {self.root.cid: self.root}
        self.bindings = BindingManager(self._maybe_destroy)
        #: Hooks called with a container right after it is destroyed
        #: (the scheduler subscribes to drop its bookkeeping).
        self.on_destroy: list[Callable[[ResourceContainer], None]] = []
        #: Hooks called with a container immediately *before* it is
        #: destroyed, while it is still alive and attached (the CPU
        #: dispatcher settles batched ledger charges here so nothing is
        #: booked onto a dead or detached container).
        self.before_destroy: list[Callable[[ResourceContainer], None]] = []
        #: Hooks called with a container right after creation.
        self.on_create: list[Callable[[ResourceContainer], None]] = []

    # ------------------------------------------------------------------
    # Creation / destruction
    # ------------------------------------------------------------------

    def create(
        self,
        name: str,
        attrs: Optional[ContainerAttributes] = None,
        parent: Optional[ResourceContainer] = None,
    ) -> ResourceContainer:
        """Create a new container.

        The new container starts with one (descriptor) reference held by
        the creator; parent defaults to the root container so that every
        container is subject to system-wide policy unless explicitly
        orphaned.
        """
        if parent is None:
            parent = self.root
        container = ResourceContainer(
            next(self._cids), name, attrs=attrs, parent=parent
        )
        container.ref_descriptor()
        self._by_id[container.cid] = container
        for hook in self.on_create:
            hook(container)
        return container

    def lookup(self, cid: int) -> ResourceContainer:
        """Find a live container by id."""
        container = self._by_id.get(cid)
        if container is None or not container.alive:
            raise ContainerPolicyError(f"no live container with cid={cid}")
        return container

    def all_containers(self) -> list[ResourceContainer]:
        """Every live container, root included."""
        return [c for c in self._by_id.values() if c.alive]

    def find_by_name(self, name: str) -> Optional[ResourceContainer]:
        """First live container named ``name`` (creation order), or None.

        Container names are not unique in general; the cluster layer's
        global principals use well-known per-host class names, which are.
        """
        for container in self._by_id.values():
            if container.alive and container.name == name:
                return container
        return None

    def release(self, container: ResourceContainer) -> None:
        """Drop one descriptor reference (close() semantics)."""
        if container.unref_descriptor():
            self._maybe_destroy(container)

    def add_descriptor_ref(self, container: ResourceContainer) -> None:
        """Take one more descriptor reference (dup/fork/transfer)."""
        container.ref_descriptor()

    def drop_object_binding(self, container: ResourceContainer) -> None:
        """Release a socket/file binding reference (socket teardown)."""
        if container.unref_object_binding():
            self._maybe_destroy(container)

    def _maybe_destroy(self, container: ResourceContainer) -> None:
        """Destroy a container once its references reach zero.

        Paper: "once there are no such descriptors, and no threads with
        resource bindings, to the container, it is destroyed.  If the
        parent P of a container C is destroyed, C's parent is set to
        'no parent'."
        """
        if container.is_root or container.total_refs > 0:
            return
        if container.state is ContainerState.DESTROYED:
            return
        for hook in self.before_destroy:
            hook(container)
        container.state = ContainerState.DESTROYED
        for child in list(container.children):
            child.set_parent(None)
        if container.parent is not None:
            # Detach without the set_parent() liveness checks.
            container.parent.children.remove(container)
            container.parent = None
        bump_hierarchy_epoch()
        del self._by_id[container.cid]
        for hook in self.on_destroy:
            hook(container)

    # ------------------------------------------------------------------
    # Attributes, parenting, usage
    # ------------------------------------------------------------------

    def set_parent(
        self, container: ResourceContainer, parent: Optional[ResourceContainer]
    ) -> None:
        """Re-parent a container (section 4.6 "Set a container's parent")."""
        container.set_parent(parent)

    def set_attributes(
        self, container: ResourceContainer, attrs: ContainerAttributes
    ) -> None:
        """Replace a container's attribute record.

        Switching a container with children to the time-share class is
        rejected (it would violate the section 5.1 structure rule).
        """
        if (
            container.children
            and not container.is_root
            and attrs.sched_class is not SchedClass.FIXED_SHARE
        ):
            raise ContainerPolicyError(
                f"container {container.name!r} has children and must stay "
                "fixed-share"
            )
        container._check_alive()
        container.attrs = attrs

    def get_attributes(self, container: ResourceContainer) -> ContainerAttributes:
        """Read a container's attribute record."""
        container._check_alive()
        return container.attrs

    def get_usage(
        self, container: ResourceContainer, *, recursive: bool = True
    ) -> ResourceUsage:
        """Usage charged to a container (subtree-aggregated by default).

        The application uses this to drive its own policies -- e.g. an
        event-driven server deciding which connection to serve next, or
        adjusting a container's numeric priority (section 4.8).
        """
        container._check_alive()
        if recursive:
            return subtree_usage(container)
        return container.usage.snapshot()
