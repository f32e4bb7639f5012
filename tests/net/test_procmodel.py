"""Kernel network thread: queueing, priority order, overflow drops."""

import random

import pytest

from repro import Host, SystemMode
from repro.apps.httpserver import EventDrivenServer
from repro.core.attributes import timeshare_attrs
from repro.experiments.common import make_host, static_clients
from repro.net.packet import Packet, PacketKind, ip_addr
from repro.net.procmodel import _STALE, KernelNetThread, protocol_cost


@pytest.fixture
def setup():
    host = Host(mode=SystemMode.RC, seed=13)
    process = host.kernel.spawn_process("p")
    net_thread = host.kernel.net_threads[process.pid]
    return host, process, net_thread


def packet(i=0):
    return Packet(seq=i + 1, kind=PacketKind.DATA, src_addr=ip_addr(9, 9, 9, i + 1))


def test_enqueue_and_runnable(setup):
    host, process, net_thread = setup
    container = host.kernel.containers.create("c")
    assert not net_thread.runnable
    assert net_thread.enqueue(container, packet(), 10.0)
    assert net_thread.runnable
    assert net_thread.pending_packets() == 1


def test_head_selected_by_container_priority(setup):
    host, _process, net_thread = setup
    low = host.kernel.containers.create("low", attrs=timeshare_attrs(priority=1))
    high = host.kernel.containers.create("high", attrs=timeshare_attrs(priority=9))
    p_low = packet(0)
    p_high = packet(1)
    net_thread.enqueue(low, p_low, 10.0)
    net_thread.enqueue(high, p_high, 10.0)
    assert net_thread.charge_container() is high
    assert net_thread.advance(10.0)
    container, completed = net_thread.take_completed()
    assert container is high
    assert completed is p_high


def test_fifo_within_same_priority(setup):
    host, _process, net_thread = setup
    a = host.kernel.containers.create("a")
    b = host.kernel.containers.create("b")
    first = packet(0)
    second = packet(1)
    net_thread.enqueue(a, first, 5.0)
    net_thread.enqueue(b, second, 5.0)
    net_thread.advance(net_thread.work_remaining_us())
    _container, completed = net_thread.take_completed()
    assert completed is first


def test_queue_overflow_drops(setup):
    host, _process, net_thread = setup
    net_thread.queue_limit = 3
    container = host.kernel.containers.create("c")
    results = [net_thread.enqueue(container, packet(i), 1.0) for i in range(5)]
    assert results == [True, True, True, False, False]
    assert net_thread.stats_dropped == 2
    assert container.usage.packets_dropped == 2


def test_partial_advance_keeps_head(setup):
    host, _process, net_thread = setup
    container = host.kernel.containers.create("c")
    net_thread.enqueue(container, packet(), 10.0)
    assert not net_thread.advance(4.0)
    assert net_thread.work_remaining_us() == pytest.approx(6.0)
    assert net_thread.advance(6.0)


def test_head_sticks_despite_higher_priority_arrival(setup):
    """Once protocol processing of a packet starts it completes, even if
    higher-priority traffic arrives mid-packet."""
    host, _process, net_thread = setup
    low = host.kernel.containers.create("low", attrs=timeshare_attrs(priority=1))
    high = host.kernel.containers.create("high", attrs=timeshare_attrs(priority=9))
    low_packet = packet(0)
    net_thread.enqueue(low, low_packet, 10.0)
    net_thread.advance(5.0)  # started
    net_thread.enqueue(high, packet(1), 10.0)
    net_thread.advance(5.0)
    _container, completed = net_thread.take_completed()
    assert completed is low_packet


def test_dead_container_queue_discarded(setup):
    host, _process, net_thread = setup
    manager = host.kernel.containers
    doomed = manager.create("doomed")
    net_thread.enqueue(doomed, packet(), 10.0)
    manager.release(doomed)
    assert net_thread.charge_container() is None
    assert not net_thread.runnable


def test_dead_unstarted_head_is_discarded(setup):
    """A container that dies after its packet was tentatively selected as
    head loses that packet too, exactly as if it had died first: nothing
    is left to charge to the dead principal."""
    host, _process, net_thread = setup
    manager = host.kernel.containers
    doomed = manager.create("doomed", attrs=timeshare_attrs(priority=9))
    survivor = manager.create("survivor", attrs=timeshare_attrs(priority=1))
    net_thread.enqueue(doomed, packet(0), 10.0)
    assert net_thread.charge_container() is doomed  # the un-started head
    manager.release(doomed)
    assert net_thread.charge_container() is None
    assert not net_thread.runnable
    assert net_thread.work_remaining_us() == 0.0
    net_thread.enqueue(doomed, packet(1), 10.0)  # a late arrival
    net_thread.enqueue(survivor, packet(2), 5.0)
    assert net_thread.charge_container() is survivor
    assert net_thread.work_remaining_us() == 5.0


class _Unmemoized(KernelNetThread):
    """The net thread whose waiting memo reads stale on every read, so
    each read recomputes it."""

    @property
    def _waiting(self):
        return _STALE

    @_waiting.setter
    def _waiting(self, memo):
        pass


def _observe(thread):
    return (
        thread.runnable,
        thread.charge_container(),
        thread.work_remaining_us(),
        thread.scheduler_priority(),
        thread.runnable,
    )


@pytest.mark.parametrize("seed", range(4))
def test_waiting_memo_matches_recomputation(setup, seed):
    """Seeded queue churn through a memoized net thread and its twin
    that recomputes the waiting set on every read: every observation
    agrees after every op, and an overflow drop leaves the memoized
    thread's version and memo as they were."""
    host, process, _net_thread = setup
    manager = host.kernel.containers
    rng = random.Random(seed)
    memoized = KernelNetThread(process, host.kernel, queue_limit=3)
    reference = _Unmemoized(process, host.kernel, queue_limit=3)
    twins = (memoized, reference)
    pool = [
        manager.create(f"c{i}", attrs=timeshare_attrs(priority=i % 3))
        for i in range(4)
    ]
    seen = {"overflow": 0, "memo kept": 0, "displaced": 0, "released": 0}
    for step in range(400):
        roll = rng.random()
        live = [c for c in pool if c.alive]
        if roll < 0.45 and live:
            container = rng.choice(live)
            key = ("socket", rng.randrange(2)) if rng.random() < 0.4 else None
            p = Packet(seq=step + 1, kind=PacketKind.DATA, src_addr=1)
            cost = rng.uniform(1.0, 9.0)
            memoized.scheduler_priority()  # a fresh memo, to watch it stand
            before = (memoized._version, memoized._waiting)
            charged = memoized._containers.get(key or ("container", container.cid))
            results = [t.enqueue(container, p, cost, key) for t in twins]
            assert results[0] == results[1]
            if not results[0] and charged is container:
                # A drop that relabels nothing leaves the memo standing.
                assert (memoized._version, memoized._waiting) == before
                seen["memo kept"] += 1
            seen["overflow"] += not results[0]
        elif roll < 0.65:
            remaining = [t.work_remaining_us() for t in twins]
            assert remaining[0] == remaining[1]
            us = remaining[0] * rng.choice([0.5, 1.0])
            if remaining[0] > 0.0:
                done = [t.advance(us) for t in twins]
                assert done[0] == done[1]
                if done[0]:
                    taken = [t.take_completed() for t in twins]
                    assert taken[0] == taken[1]
        elif roll < 0.75 and live:
            waiting = list(memoized._containers.values())
            queued = [c for c in live if c in waiting]
            victim = rng.choice(queued or live)
            manager.release(victim)
            seen["released"] += bool(queued)
        elif roll < 0.9:
            head = memoized._head
            if head is not None and not memoized._head_started and live:
                # Raise a waiting container above the un-started head.
                target = rng.choice(live)
                priority = head[1].attrs.numeric_priority + 1
                manager.set_attributes(target, timeshare_attrs(priority=priority))
                before = memoized._head
                observed = _observe(memoized)
                assert observed == _observe(reference)
                seen["displaced"] += memoized._head is not before
                continue
        else:
            attrs = timeshare_attrs(priority=rng.randrange(3))
            pool.append(manager.create(f"c{len(pool)}", attrs=attrs))
        assert _observe(memoized) == _observe(reference), step
    assert all(seen.values()), seen


def test_scheduler_priority_reads_pending(setup):
    host, _process, net_thread = setup
    a = host.kernel.containers.create("a", attrs=timeshare_attrs(priority=3))
    b = host.kernel.containers.create("b", attrs=timeshare_attrs(priority=5))
    assert net_thread.scheduler_priority() is None
    net_thread.enqueue(a, packet(0), 1.0)
    net_thread.enqueue(b, packet(1), 1.0)
    assert net_thread.scheduler_priority() == 5
    assert net_thread.charge_container() is b  # the head leaves the waiting set
    assert net_thread.scheduler_priority() == 3
    assert net_thread.pending_packets() == 2


def test_destroyed_container_lends_no_priority(setup):
    """Stranded packets of a destroyed container must not raise the
    net thread's priority while it finishes a lower-priority packet."""
    host, _process, net_thread = setup
    manager = host.kernel.containers
    low = manager.create("low", attrs=timeshare_attrs(priority=1))
    high = manager.create("high", attrs=timeshare_attrs(priority=9))
    net_thread.enqueue(low, packet(0), 10.0)
    net_thread.advance(5.0)  # the priority-1 head is being processed
    net_thread.enqueue(high, packet(1), 10.0)
    assert net_thread.scheduler_priority() == 9
    manager.release(high)
    assert net_thread.scheduler_priority() is None
    assert net_thread.charge_container() is low
    priority = host.kernel.scheduler._combined_priority(net_thread, low)
    assert priority == 1


def test_protocol_cost_per_kind():
    host = Host(mode=SystemMode.RC, seed=13)
    costs = host.kernel.costs
    kernel = host.kernel
    assert protocol_cost(kernel, Packet(1, PacketKind.SYN, 1)) == costs.proto_syn
    assert protocol_cost(kernel, Packet(1, PacketKind.DATA, 1)) == costs.proto_rx_segment
    assert protocol_cost(kernel, Packet(1, PacketKind.FIN, 1)) == costs.proto_fin
    assert (
        protocol_cost(kernel, Packet(1, PacketKind.HANDSHAKE_ACK, 1))
        == costs.proto_established
    )



def test_lrp_queue_keys_leave_with_their_last_packet():
    """LRP queues per socket, so every connection brings a new key; a
    key must leave once its queue empties, or each head selection and
    waiting-set recompute walks every connection the server has seen."""
    host = make_host(SystemMode.LRP, seed=1)
    server = EventDrivenServer(host.kernel, use_containers=False)
    server.install()
    clients = static_clients(host, 8)
    net_thread = host.kernel.net_threads[server.process.pid]
    host.run(seconds=0.4)
    assert sum(c.stats_completed for c in clients) > 500
    live = sum(1 for queue in net_thread._queues.values() if queue)
    assert len(net_thread._queues) <= live + 1
    assert net_thread._containers.keys() == net_thread._queues.keys()
