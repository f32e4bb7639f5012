"""Kernel net threads reach the scheduler through wakeups, not scans.

Every process on an LRP/RC kernel owns a kernel network thread, a
volatile schedulable whose key follows its head packet.  The kernel
announces each successful enqueue with ``Scheduler.on_wakeup``; the
container scheduler evaluates only the net threads that may be
runnable, so idle ones cost a pick nothing.
"""

from repro import Host, SystemMode
from repro.net.packet import Packet, PacketKind, ip_addr
from repro.net.procmodel import KernelNetThread
from repro.syscall import api


def test_idle_net_threads_are_never_evaluated_by_picks(monkeypatch):
    host = Host(mode=SystemMode.RC, seed=3)

    def spin():
        while True:
            yield api.Compute(800.0)

    for index in range(1_000):
        host.kernel.spawn_process(f"spin{index}", spin)
    assert len(host.kernel.net_threads) == 1_000
    host.run(until_us=20_000.0)

    calls = [0]
    original = KernelNetThread.runnable

    def counted(self):
        calls[0] += 1
        return original.fget(self)

    monkeypatch.setattr(KernelNetThread, "runnable", property(counted))
    scheduler = host.kernel.scheduler
    picks_before = scheduler._pick_seq
    host.run(until_us=120_000.0)
    assert scheduler._pick_seq - picks_before >= 100
    assert calls[0] == 0


class _Client:
    """Just enough of a client endpoint to receive a SYN|ACK."""

    def __init__(self):
        self.synacks = []

    def on_synack(self, half_open):
        self.synacks.append(half_open)


def _syn(index, client):
    return Packet(
        seq=index, kind=PacketKind.SYN, src_addr=ip_addr(1, 2, 3, index),
        payload=client,
    )


def test_dropped_net_thread_is_picked_again_after_a_packet():
    host = Host(mode=SystemMode.RC, seed=9)

    def server():
        fd = yield api.Socket()
        yield api.Bind(fd, 80)
        yield api.Listen(fd, backlog=8)
        yield api.Sleep(1e9)

    process = host.kernel.spawn_process("srv", server)
    host.run(until_us=1_000.0)
    net_thread = host.kernel.net_threads[process.pid]
    scheduler = host.kernel.scheduler
    assert id(net_thread) not in scheduler._ready

    first = _Client()
    host.kernel.net_input(_syn(1, first))
    host.run(until_us=3_000.0)
    assert first.synacks and net_thread.stats_processed == 1
    # The net thread went idle; the next pick dropped it from the set.
    assert not net_thread.runnable
    assert id(net_thread) not in scheduler._ready

    second = _Client()
    host.kernel.net_input(_syn(2, second))
    host.run(until_us=5_000.0)
    assert second.synacks and net_thread.stats_processed == 2
    assert host.kernel.stack.listeners[0].stats_syns_received == 2
