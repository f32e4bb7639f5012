"""The kernel's periodic scheduler-binding prune (paper section 4.3).

``Kernel._prune_tick`` skips a thread whose scheduler binding holds
only its own live resource binding: ``prune`` could remove nothing
there and would never fire ``on_change``.  Every other binding is still
pruned exactly as before.
"""

import pytest

from repro import Host, SystemMode
from repro.core.binding import SchedulerBinding
from repro.core.container import ContainerState
from repro.syscall import api

PRUNE_US = 100_000.0  # KernelConfig's default prune interval and age


@pytest.fixture
def sleeper(monkeypatch):
    """An RC host with one sleeping thread, plus spies on its binding."""
    host = Host(mode=SystemMode.RC, seed=5)

    def body():
        yield api.Sleep(1e9)

    process = host.kernel.spawn_process("p", body)
    host.run(until_us=1_000.0)
    thread = process.threads[0]
    binding = thread.scheduler_binding
    assert list(binding.members()) == [thread.resource_binding]

    pruned = []
    original_prune = SchedulerBinding.prune

    def spy_prune(self, *args, **kwargs):
        if self is binding:
            pruned.append(args[0])
        return original_prune(self, *args, **kwargs)

    monkeypatch.setattr(SchedulerBinding, "prune", spy_prune)
    changes = [0]
    scheduler_hook = binding.on_change

    def spy_change():
        changes[0] += 1
        if scheduler_hook is not None:
            scheduler_hook()

    binding.on_change = spy_change
    return host, thread, binding, pruned, changes


def test_sole_live_current_container_is_skipped(sleeper):
    host, thread, binding, pruned, changes = sleeper
    host.run(until_us=2.5 * PRUNE_US)
    assert pruned == []
    assert changes[0] == 0
    assert list(binding.members()) == [thread.resource_binding]


def test_stale_second_member_is_still_pruned(sleeper):
    host, thread, binding, pruned, changes = sleeper
    extra = host.kernel.containers.create("extra")
    binding.observe(extra, host.sim.now)
    assert changes[0] == 1  # the member joined
    host.run(until_us=2.5 * PRUNE_US)
    assert pruned  # both ticks pruned; the second one aged ``extra`` out
    assert extra not in binding
    assert thread.resource_binding in binding
    assert changes[0] == 2


def test_dead_sole_member_is_still_pruned(sleeper):
    host, thread, binding, pruned, changes = sleeper
    # A live resource binding keeps its container alive; force the
    # death to reach the one case the fast path must not swallow.
    thread.resource_binding.state = ContainerState.DESTROYED
    host.run(until_us=1.5 * PRUNE_US)
    assert pruned == [PRUNE_US]
    assert len(binding) == 0
    assert changes[0] == 1
