"""Scheduler membership: attach/detach by identity, iteration in attach
order, for every policy sharing :class:`repro.sched.base.Scheduler`."""

import pytest

from repro.core.operations import ContainerManager
from repro.sched.container_sched import ContainerScheduler
from repro.sched.lottery import LotteryScheduler
from repro.sched.timeshare import UnixTimeshareScheduler
from repro.sim.rng import SeededRng


class EqualEntity:
    """Schedulable whose value equality ignores identity, like a
    dataclass: two of them compare equal yet are distinct threads."""

    sched_push_notify = False

    def __init__(self, name, container):
        self.name = name
        self.container = container
        self.runnable = True

    def __eq__(self, other):
        return isinstance(other, EqualEntity)

    __hash__ = object.__hash__

    def charge_container(self):
        return self.container

    def scheduler_priority(self):
        return self.container.attrs.numeric_priority


@pytest.mark.parametrize(
    "make",
    [
        ContainerScheduler,
        lambda root: UnixTimeshareScheduler(),
        lambda root: LotteryScheduler(SeededRng(1)),
    ],
    ids=["container", "timeshare", "lottery"],
)
def test_membership_is_by_identity_in_attach_order(make):
    manager = ContainerManager()
    sched = make(manager.root)
    container = manager.create("c")
    a, b, c = (EqualEntity(n, container) for n in "abc")
    for entity in (a, b, c, a):  # re-attaching is a no-op
        sched.attach(entity)
    assert [e.name for e in sched.entities()] == ["a", "b", "c"]
    sched.detach(b)  # equal to a and c, but only b leaves
    assert [e.name for e in sched.entities()] == ["a", "c"]
    sched.detach(b)  # detaching twice is a no-op
    sched.attach(b)  # a re-attach goes to the end
    assert [e.name for e in sched.entities()] == ["a", "c", "b"]
    assert isinstance(sched.entities(), list)
