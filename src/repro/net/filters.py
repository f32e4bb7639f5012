"""The filtered ``sockaddr`` namespace (paper section 4.8).

A filter is a tuple of a template address and a CIDR network mask [36].
An application binds several sockets to the same <local-address,
local-port> with different <template-address, CIDR-mask> filters; the
kernel assigns an incoming connection request to the socket whose filter
matches its source address most specifically.  By binding each such
socket to a different resource container, the server assigns priorities
to client classes *before* it ever sees their connections -- the basis of
the SYN-flood defence of section 5.7.

The paper also muses that "one might also want to be able to specify
complement filters, to accept connections except from certain clients";
we implement that as the ``negate`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, TypeVar

from repro.net.packet import format_ip


@dataclass(frozen=True)
class AddrFilter:
    """<template-address, CIDR-mask> filter, optionally complemented.

    ``prefix_len`` of 0 matches every address (the default/wildcard
    socket); 32 matches exactly one host.  The fields after ``negate``
    are derived at construction and take no part in ``==``, ``hash`` or
    ``repr``.
    """

    template: int
    prefix_len: int
    negate: bool = False
    #: The CIDR netmask as a 32-bit integer.
    mask: int = field(init=False, compare=False, repr=False)
    #: ``template & mask``: what a matching address masks to.
    network: int = field(init=False, compare=False, repr=False)
    #: Longer prefixes win demultiplexing ties.  A negated filter is
    #: deliberately *less* specific than any positive filter of the same
    #: length: "everyone except X" is a coarser statement about the
    #: matched address than "exactly X's prefix".
    specificity: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"prefix_len must be 0..32, got {self.prefix_len}")
        if not 0 <= self.template <= 0xFFFF_FFFF:
            raise ValueError(f"template must be a 32-bit address")
        mask = (0xFFFF_FFFF << (32 - self.prefix_len)) & 0xFFFF_FFFF
        specificity = -self.prefix_len if self.negate else self.prefix_len
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "network", self.template & mask)
        object.__setattr__(self, "specificity", specificity)

    def matches(self, addr: int) -> bool:
        """True if ``addr`` falls inside (or, negated, outside) the prefix."""
        return ((addr & self.mask) == self.network) != self.negate

    def __str__(self) -> str:
        prefix = f"{format_ip(self.template)}/{self.prefix_len}"
        return f"!{prefix}" if self.negate else prefix


#: Matches every source address; what an unfiltered bind() uses.
WILDCARD = AddrFilter(template=0, prefix_len=0)


class _Filtered(Protocol):
    """Anything carrying an optional address filter (listen sockets)."""

    addr_filter: Optional[AddrFilter]


F = TypeVar("F", bound=_Filtered)


def best_match(candidates: Iterable[F], addr: int) -> Optional[F]:
    """The most specific candidate whose filter matches ``addr``.

    Candidates with no filter count as wildcard.  Ties go to the earliest
    candidate (bind order), which makes demultiplexing deterministic.
    """
    best: Optional[F] = None
    best_spec = -1000
    for candidate in candidates:
        addr_filter = candidate.addr_filter or WILDCARD
        if addr_filter.specificity > best_spec and addr_filter.matches(addr):
            best_spec = addr_filter.specificity
            best = candidate
    return best
