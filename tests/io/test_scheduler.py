"""I/O scheduling disciplines: FIFO order and weighted fairness."""

import random

import pytest

from repro.core.attributes import timeshare_attrs
from repro.core.operations import ContainerManager
from repro.io import (
    DiskDevice,
    FifoIOScheduler,
    WeightedFairIOScheduler,
    make_io_scheduler,
)
from repro.io.device import DiskRequest
from repro.kernel.costs import DEFAULT_COSTS
from repro.sim.engine import Simulation


def _request(rid, container=None, size=1024, submit=0.0):
    request = DiskRequest(
        rid=rid,
        path=f"/f{rid}",
        size_bytes=size,
        container=container,
        on_complete=None,
        submit_us=submit,
    )
    # The device normally stamps this at submit; do it by hand here.
    request.service_us = (
        DEFAULT_COSTS.disk_seek_us
        + DEFAULT_COSTS.disk_transfer_per_kb_us * (size / 1024.0)
    )
    return request


def test_factory_names():
    assert make_io_scheduler("fifo").name == "fifo"
    assert make_io_scheduler("wfq").name == "wfq"
    assert make_io_scheduler("fair").name == "wfq"
    with pytest.raises(ValueError):
        make_io_scheduler("elevator")


def test_fifo_strict_arrival_order():
    scheduler = FifoIOScheduler()
    requests = [_request(rid) for rid in (1, 2, 3)]
    for request in requests:
        scheduler.add(request, 0.0)
    assert len(scheduler) == 3
    popped = [scheduler.pop(0.0) for _ in range(3)]
    assert popped == requests
    assert scheduler.pop(0.0) is None


def test_wfq_single_flow_is_fifo():
    manager = ContainerManager()
    owner = manager.create("only")
    scheduler = WeightedFairIOScheduler()
    requests = [_request(rid, owner) for rid in (1, 2, 3)]
    for request in requests:
        scheduler.add(request, 0.0)
    order = []
    while len(scheduler):
        request = scheduler.pop(0.0)
        order.append(request)
        scheduler.charge(request, 0.0)
    assert order == requests


def test_wfq_equal_weights_interleave():
    """Two backlogged equal-weight flows alternate, regardless of how
    lopsided the arrival order was."""
    manager = ContainerManager()
    a = manager.create("a")
    b = manager.create("b")
    scheduler = WeightedFairIOScheduler()
    rid = 0
    for owner in (a, a, a, b, b, b):
        rid += 1
        scheduler.add(_request(rid, owner), 0.0)
    pattern = []
    while len(scheduler):
        request = scheduler.pop(0.0)
        pattern.append(request.container.name)
        scheduler.charge(request, 0.0)
    assert pattern == ["a", "b", "a", "b", "a", "b"]


def test_wfq_weight_ratio_shares_service():
    """A weight-3 flow gets ~3x the completions of a weight-1 flow."""
    manager = ContainerManager()
    heavy = manager.create("heavy", attrs=timeshare_attrs(weight=3.0))
    light = manager.create("light")
    scheduler = WeightedFairIOScheduler()
    rid = 0
    for _ in range(30):
        for owner in (heavy, light):
            rid += 1
            scheduler.add(_request(rid, owner), 0.0)
    served = {"heavy": 0, "light": 0}
    for _ in range(20):
        request = scheduler.pop(0.0)
        served[request.container.name] += 1
        scheduler.charge(request, 0.0)
    assert served["heavy"] == 15
    assert served["light"] == 5


def test_wfq_idle_flow_cannot_bank_credit():
    """A flow that sat idle is clamped to virtual time: it does not get
    to burn its whole backlog first when it returns."""
    manager = ContainerManager()
    busy = manager.create("busy")
    idler = manager.create("idler")
    scheduler = WeightedFairIOScheduler()
    rid = 0
    # The busy flow runs alone for a long stretch...
    for _ in range(10):
        rid += 1
        scheduler.add(_request(rid, busy), 0.0)
        request = scheduler.pop(0.0)
        scheduler.charge(request, 0.0)
    # ...then the idler arrives with a burst while busy stays backlogged.
    for _ in range(3):
        rid += 1
        scheduler.add(_request(rid, idler), 0.0)
    rid += 1
    scheduler.add(_request(rid, busy), 0.0)
    pattern = []
    while len(scheduler):
        request = scheduler.pop(0.0)
        pattern.append(request.container.name)
        scheduler.charge(request, 0.0)
    # Clamped to vtime, the idler does not sweep its whole burst 3-0
    # before the busy flow's request gets a turn.
    assert pattern == ["idler", "idler", "busy", "idler"]


def test_wfq_deterministic_tie_break_by_seq():
    manager = ContainerManager()
    a = manager.create("a")
    b = manager.create("b")
    scheduler = WeightedFairIOScheduler()
    first = _request(1, b)
    second = _request(2, a)
    scheduler.add(first, 0.0)
    scheduler.add(second, 0.0)
    assert scheduler.pop(0.0) is first  # equal tags: lower seq wins


def test_wfq_heavier_flow_wins_ties_via_finish_tag():
    """Finish-tag dispatch: a high-weight arrival undercuts an
    equal-start backlog instead of waiting out the round."""
    manager = ContainerManager()
    antagonists = [manager.create(f"antag-{i}") for i in range(4)]
    premium = manager.create("premium", attrs=timeshare_attrs(weight=8.0))
    scheduler = WeightedFairIOScheduler()
    rid = 0
    for owner in antagonists:
        rid += 1
        scheduler.add(_request(rid, owner), 0.0)
    rid += 1
    scheduler.add(_request(rid, premium), 0.0)  # arrives last
    assert scheduler.pop(0.0).container is premium


def test_wfq_isolation_on_device():
    """End to end on the device: with WFQ a high-weight flow's request
    overtakes a deep equal-weight backlog; with FIFO it waits it out."""
    manager = ContainerManager()
    hogs = [manager.create(f"hog-{i}") for i in range(4)]
    premium = manager.create("premium", attrs=timeshare_attrs(weight=8.0))

    def run(scheduler):
        sim = Simulation(seed=3)
        device = DiskDevice(sim, DEFAULT_COSTS, scheduler=scheduler)
        for _ in range(3):
            for hog in hogs:
                device.submit("/hog", 8 * 1024, hog)
        request = device.submit("/premium", 8 * 1024, premium)
        sim.run(until=1e9)
        return request.wait_us

    fifo_wait = run(FifoIOScheduler())
    wfq_wait = run(WeightedFairIOScheduler())
    service = DEFAULT_COSTS.disk_seek_us + 8 * DEFAULT_COSTS.disk_transfer_per_kb_us
    assert fifo_wait == pytest.approx(12 * service)  # behind all 12 hogs
    assert wfq_wait == pytest.approx(service)  # behind only the in-flight one


def _full_scan_head(scheduler):
    """The request the old dispatch rule picks: a scan of every flow's
    queue head for the smallest (finish tag, arrival seq)."""
    best = None
    for queue in scheduler._queues.values():
        _start, finish_tag, request = queue[0]
        if best is None or (finish_tag, request.seq) < best[0]:
            best = ((finish_tag, request.seq), request)
    return None if best is None else best[1]


@pytest.mark.parametrize("seed", range(8))
def test_wfq_heads_match_the_full_scan(seed):
    """Seeded arrivals and pops: every dispatch equals the full-scan
    rule's.  Equal sizes and weights make equal finish tags common, so
    the arrival-sequence tie-break is exercised too."""
    rng = random.Random(seed)
    manager = ContainerManager()
    owners = [None] + [
        manager.create(f"f{i}", attrs=timeshare_attrs(weight=rng.choice([1.0, 2.0])))
        for i in range(6)
    ]
    scheduler = WeightedFairIOScheduler()
    rid = 0
    ties = 0
    for _step in range(400):
        if rng.random() < 0.55:
            rid += 1
            size = rng.choice([1024, 1024, 4096])
            scheduler.add(_request(rid, rng.choice(owners), size=size), 0.0)
            continue
        finish_tags = [queue[0][1] for queue in scheduler._queues.values()]
        ties += len(finish_tags) - len(set(finish_tags))
        want = _full_scan_head(scheduler)
        assert scheduler.pop(0.0) is want
        assert set(scheduler._heads) == set(scheduler._queues)
    while len(scheduler):
        want = _full_scan_head(scheduler)
        assert scheduler.pop(0.0) is want
    assert scheduler.pop(0.0) is None and not scheduler._heads
    assert ties > 0
