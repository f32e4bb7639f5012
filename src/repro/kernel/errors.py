"""Kernel error types.

These mirror the errno-style failures a UNIX kernel reports.  Application
code running on the simulated syscall API sees these raised out of the
``yield`` that issued the syscall.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all simulated kernel errors."""


class BadDescriptorError(KernelError):
    """Operation on a closed or never-opened descriptor (EBADF)."""


class WouldBlockError(KernelError):
    """Non-blocking operation could not complete immediately (EWOULDBLOCK)."""


class ResourceLimitError(KernelError):
    """A container's resource limit rejected an allocation (EAGAIN/ENOMEM)."""


class ContainerPolicyError(KernelError):
    """A container operation violated the hierarchy/binding rules.

    Examples from the prototype's restrictions (paper section 5.1):
    time-share containers cannot have children, and threads may only be
    resource-bound to leaf containers.
    """


class InvalidArgumentError(KernelError):
    """Malformed syscall argument (EINVAL)."""


class AddressInUseError(KernelError):
    """bind() collided with an existing (address, port, filter) binding."""
