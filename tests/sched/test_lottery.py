"""Lottery scheduler: proportional share by tickets."""

import pytest

from repro.core.operations import ContainerManager
from repro.sched.lottery import DEFAULT_TICKETS, LotteryScheduler
from repro.sim.rng import SeededRng

from tests.sched.oracle import VolatileFake


@pytest.fixture
def setup():
    manager = ContainerManager()
    sched = LotteryScheduler(SeededRng(99), quantum_us=1000.0)
    return manager, sched


def test_share_tracks_tickets(setup):
    manager, sched = setup
    rich = VolatileFake("rich", manager.create("rich"))
    poor = VolatileFake("poor", manager.create("poor"))
    LotteryScheduler.set_tickets(rich.container, 300)
    LotteryScheduler.set_tickets(poor.container, 100)
    sched.attach(rich)
    sched.attach(poor)
    wins = {"rich": 0, "poor": 0}
    for _ in range(4000):
        wins[sched.pick_for_cpu(0.0, 0).name] += 1
    share = wins["rich"] / 4000
    assert share == pytest.approx(0.75, abs=0.04)


def test_default_tickets_used_without_state(setup):
    manager, sched = setup
    entity = VolatileFake("e", manager.create("c"))
    assert LotteryScheduler.tickets_of(entity) == DEFAULT_TICKETS


def test_set_tickets_validates():
    manager = ContainerManager()
    c = manager.create("c")
    with pytest.raises(ValueError):
        LotteryScheduler.set_tickets(c, 0)


def test_single_runnable_always_picked(setup):
    manager, sched = setup
    only = VolatileFake("only", manager.create("only"))
    sched.attach(only)
    for _ in range(50):
        assert sched.pick_for_cpu(0.0, 0) is only


def test_no_runnable_returns_none(setup):
    _manager, sched = setup
    assert sched.pick_for_cpu(0.0, 0) is None


def test_deterministic_given_seed():
    manager = ContainerManager()
    names1 = _run_sequence(manager, seed=5)
    names2 = _run_sequence(ContainerManager(), seed=5)
    assert names1 == names2


def _run_sequence(manager, seed):
    sched = LotteryScheduler(SeededRng(seed))
    a = VolatileFake("a", manager.create("a"))
    b = VolatileFake("b", manager.create("b"))
    sched.attach(a)
    sched.attach(b)
    return [sched.pick_for_cpu(0.0, 0).name for _ in range(30)]
