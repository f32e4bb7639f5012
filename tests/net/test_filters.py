"""The filtered sockaddr namespace: CIDR matching and demultiplexing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Host, SystemMode
from repro.net.filters import WILDCARD, AddrFilter, best_match
from repro.net.packet import ip_addr
from repro.net.tcp import ListenSocket


class Holder:
    """Filter carrier for best_match tests."""

    def __init__(self, name, addr_filter):
        self.name = name
        self.addr_filter = addr_filter


def test_wildcard_matches_everything():
    assert WILDCARD.matches(0)
    assert WILDCARD.matches(0xFFFFFFFF)
    assert WILDCARD.matches(ip_addr(10, 1, 2, 3))


def test_exact_host_filter():
    f = AddrFilter(template=ip_addr(10, 0, 0, 5), prefix_len=32)
    assert f.matches(ip_addr(10, 0, 0, 5))
    assert not f.matches(ip_addr(10, 0, 0, 6))


def test_subnet_filter():
    f = AddrFilter(template=ip_addr(66, 6, 6, 0), prefix_len=24)
    assert f.matches(ip_addr(66, 6, 6, 99))
    assert not f.matches(ip_addr(66, 6, 7, 99))


def test_negated_filter():
    f = AddrFilter(template=ip_addr(66, 6, 6, 0), prefix_len=24, negate=True)
    assert not f.matches(ip_addr(66, 6, 6, 99))
    assert f.matches(ip_addr(10, 0, 0, 1))


def test_mask_values():
    assert AddrFilter(0, 0).mask == 0
    assert AddrFilter(0, 8).mask == 0xFF000000
    assert AddrFilter(0, 32).mask == 0xFFFFFFFF


def test_invalid_prefix_rejected():
    with pytest.raises(ValueError):
        AddrFilter(template=0, prefix_len=33)
    with pytest.raises(ValueError):
        AddrFilter(template=0, prefix_len=-1)


def test_best_match_prefers_longest_prefix():
    wildcard = Holder("wild", None)
    subnet = Holder("subnet", AddrFilter(ip_addr(10, 0, 0, 0), 24))
    host = Holder("host", AddrFilter(ip_addr(10, 0, 0, 7), 32))
    candidates = [wildcard, subnet, host]
    assert best_match(candidates, ip_addr(10, 0, 0, 7)).name == "host"
    assert best_match(candidates, ip_addr(10, 0, 0, 8)).name == "subnet"
    assert best_match(candidates, ip_addr(99, 0, 0, 1)).name == "wild"


def test_best_match_none_when_nothing_matches():
    only = Holder("host", AddrFilter(ip_addr(10, 0, 0, 7), 32))
    assert best_match([only], ip_addr(10, 0, 0, 8)) is None


def test_best_match_tie_goes_to_bind_order():
    a = Holder("first", None)
    b = Holder("second", None)
    assert best_match([a, b], 123).name == "first"


def test_negated_filter_less_specific_than_positive():
    positive = Holder("pos", AddrFilter(ip_addr(10, 0, 0, 0), 24))
    negative = Holder("neg", AddrFilter(ip_addr(99, 0, 0, 0), 24, negate=True))
    # Address inside the positive subnet: positive wins despite equal
    # prefix lengths.
    assert best_match([negative, positive], ip_addr(10, 0, 0, 1)).name == "pos"


def test_str_rendering():
    assert str(AddrFilter(ip_addr(10, 0, 0, 0), 24)) == "10.0.0.0/24"
    assert str(AddrFilter(ip_addr(10, 0, 0, 0), 24, negate=True)) == "!10.0.0.0/24"


# ---------------------------------------------------------------------------
# Property tests against a reference implementation
# ---------------------------------------------------------------------------


def reference_matches(template: int, prefix_len: int, addr: int) -> bool:
    """Reference via bit strings."""
    if prefix_len == 0:
        return True
    tbits = format(template, "032b")[:prefix_len]
    abits = format(addr, "032b")[:prefix_len]
    return tbits == abits


@given(
    template=st.integers(0, 0xFFFFFFFF),
    prefix_len=st.integers(0, 32),
    addr=st.integers(0, 0xFFFFFFFF),
)
@settings(max_examples=300, deadline=None)
def test_matches_agrees_with_reference(template, prefix_len, addr):
    filt = AddrFilter(template=template, prefix_len=prefix_len)
    assert filt.matches(addr) == reference_matches(template, prefix_len, addr)


@given(
    template=st.integers(0, 0xFFFFFFFF),
    prefix_len=st.integers(0, 32),
)
@settings(max_examples=200, deadline=None)
def test_template_always_matches_itself(template, prefix_len):
    assert AddrFilter(template=template, prefix_len=prefix_len).matches(template)


@given(
    template=st.integers(0, 0xFFFFFFFF),
    prefix_len=st.integers(0, 32),
    addr=st.integers(0, 0xFFFFFFFF),
)
@settings(max_examples=200, deadline=None)
def test_negation_is_complement(template, prefix_len, addr):
    positive = AddrFilter(template=template, prefix_len=prefix_len)
    negative = AddrFilter(template=template, prefix_len=prefix_len, negate=True)
    assert positive.matches(addr) != negative.matches(addr)


# ---------------------------------------------------------------------------
# Demultiplexing against a reference scan of the section 4.8 rule
# ---------------------------------------------------------------------------


def test_filter_identity_is_template_prefix_negate():
    """The derived fields (mask, network, specificity) take no part in
    equality, hashing or ``repr``."""
    a = AddrFilter(ip_addr(10, 0, 0, 0), 8)
    b = AddrFilter(template=ip_addr(10, 0, 0, 0), prefix_len=8, negate=False)
    assert a == b and hash(a) == hash(b)
    assert a != AddrFilter(ip_addr(10, 0, 0, 0), 8, negate=True)
    assert a != AddrFilter(ip_addr(10, 0, 0, 0), 16)
    assert len({a, b, WILDCARD}) == 2
    assert repr(a) == "AddrFilter(template=167772160, prefix_len=8, negate=False)"
    assert str(AddrFilter(ip_addr(66, 6, 6, 6), 32, negate=True)) == "!66.6.6.6/32"
    assert (a.mask, a.network, a.specificity) == (0xFF000000, ip_addr(10, 0, 0, 0), 8)
    assert AddrFilter(ip_addr(10, 9, 9, 9), 8, negate=True).network == ip_addr(10, 0, 0, 0)
    assert AddrFilter(ip_addr(10, 9, 9, 9), 8, negate=True).specificity == -8


@pytest.mark.parametrize("template", [-1, 0x1_0000_0000])
def test_invalid_template_rejected(template):
    with pytest.raises(ValueError):
        AddrFilter(template=template, prefix_len=8)


def reference_listener(listeners, port, addr):
    """Section 4.8, scanned the slow way: among the open listeners on
    ``port`` whose filter admits ``addr``, the most specific wins (a
    longer prefix is more specific; a negated filter ranks below every
    positive one, and below it by its own length); ties go to the
    earliest bound.  No filter means the wildcard."""

    def admits(addr_filter):
        if addr_filter is None:
            return True
        inside = reference_matches(addr_filter.template, addr_filter.prefix_len, addr)
        return inside != addr_filter.negate

    def rank(addr_filter):
        if addr_filter is None:
            return 0
        length = addr_filter.prefix_len
        return -length if addr_filter.negate else length

    admitted = [
        (index, s)
        for index, s in enumerate(listeners)
        if s.port == port and not s.closed and admits(s.addr_filter)
    ]
    if not admitted:
        return None
    return min(admitted, key=lambda item: (-rank(item[1].addr_filter), item[0]))[1]


@pytest.mark.parametrize("seed", range(6))
def test_demux_listener_matches_reference_scan(seed):
    """Seeded listener sets -- wildcards, nested prefixes, negated,
    closed and other-port sockets -- demultiplex exactly as the
    reference scan does, through ``TcpStack.demux_listener`` and
    ``best_match`` alike."""
    rng = random.Random(seed)
    host = Host(mode=SystemMode.RC, seed=seed)
    stack = host.kernel.stack
    process = host.kernel.spawn_process("srv")
    bases = [ip_addr(10, 1, 2, 3), ip_addr(66, 6, 6, 6), ip_addr(10, 1, 200, 9)]
    for _ in range(rng.randrange(1, 12)):
        roll = rng.random()
        if roll < 0.2:
            addr_filter = None if rng.random() < 0.5 else WILDCARD
        else:
            addr_filter = AddrFilter(
                template=rng.choice(bases),
                prefix_len=rng.choice([0, 8, 16, 24, 32]),
                negate=rng.random() < 0.3,
            )
        socket = ListenSocket(process, rng.choice([80, 80, 80, 81]), addr_filter)
        socket.closed = rng.random() < 0.15
        stack.listeners.append(socket)
    probes = bases + [ip_addr(10, 1, 2, 99), ip_addr(10, 9, 9, 9), ip_addr(99, 0, 0, 1)]
    kinds = {"none": 0, "found": 0}
    for addr in probes:
        for port in (80, 81, 82):
            expected = reference_listener(stack.listeners, port, addr)
            assert stack.demux_listener(port, addr) is expected
            open_here = [s for s in stack.listeners if s.port == port and not s.closed]
            assert best_match(open_here, addr) is expected
            kinds["none" if expected is None else "found"] += 1
    assert all(kinds.values()), kinds
