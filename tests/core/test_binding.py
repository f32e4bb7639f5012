"""Resource and scheduler bindings (paper sections 4.2-4.3)."""

from repro.core.binding import BindingManager, SchedulerBinding
from repro.core.container import ContainerState, ResourceContainer
from repro.core.attributes import timeshare_attrs


class _FakeThread:
    """Minimal stand-in carrying the binding fields."""

    def __init__(self):
        self.resource_binding = None
        self.scheduler_binding = SchedulerBinding()


def test_observe_and_members():
    binding = SchedulerBinding()
    a = ResourceContainer(1, "a")
    b = ResourceContainer(2, "b")
    binding.observe(a, now=0.0)
    binding.observe(b, now=1.0)
    assert len(binding) == 2
    assert a in binding
    assert b in binding


def test_prune_removes_stale():
    binding = SchedulerBinding()
    a = ResourceContainer(1, "a")
    b = ResourceContainer(2, "b")
    binding.observe(a, now=0.0)
    binding.observe(b, now=90_000.0)
    removed = binding.prune(now=150_000.0, max_age_us=100_000.0)
    assert removed == 1
    assert a not in binding
    assert b in binding


def test_prune_removes_dead_containers():
    binding = SchedulerBinding()
    a = ResourceContainer(1, "a")
    binding.observe(a, now=0.0)
    a.state = ContainerState.DESTROYED
    assert binding.prune(now=1.0) == 1
    assert len(binding) == 0


def test_reobserve_refreshes_age():
    binding = SchedulerBinding()
    a = ResourceContainer(1, "a")
    binding.observe(a, now=0.0)
    binding.observe(a, now=99_000.0)
    assert binding.prune(now=150_000.0, max_age_us=100_000.0) == 0


def test_reset_to_keeps_only_current():
    binding = SchedulerBinding()
    a = ResourceContainer(1, "a")
    b = ResourceContainer(2, "b")
    binding.observe(a, now=0.0)
    binding.observe(b, now=0.0)
    binding.reset_to(b, now=1.0)
    assert len(binding) == 1
    assert b in binding


def test_combined_priority_is_max():
    binding = SchedulerBinding()
    binding.observe(ResourceContainer(1, "lo", attrs=timeshare_attrs(priority=1)), 0.0)
    binding.observe(ResourceContainer(2, "hi", attrs=timeshare_attrs(priority=9)), 0.0)
    assert binding.combined_priority() == 9


def test_combined_priority_empty_is_none():
    assert SchedulerBinding().combined_priority() is None


def test_bind_thread_moves_reference():
    destroyed = []
    manager = BindingManager(destroyed.append)
    thread = _FakeThread()
    a = ResourceContainer(1, "a")
    b = ResourceContainer(2, "b")
    manager.bind_thread(thread, a, now=0.0)
    assert a.thread_binding_refs == 1
    manager.bind_thread(thread, b, now=1.0)
    assert a.thread_binding_refs == 0
    assert b.thread_binding_refs == 1
    # a became unreferenced and was reported.
    assert destroyed == [a]
    # Scheduler binding remembers both (until pruned).
    assert a in thread.scheduler_binding
    assert b in thread.scheduler_binding


def test_rebind_same_container_is_noop():
    destroyed = []
    manager = BindingManager(destroyed.append)
    thread = _FakeThread()
    a = ResourceContainer(1, "a")
    manager.bind_thread(thread, a, now=0.0)
    manager.bind_thread(thread, a, now=1.0)
    assert a.thread_binding_refs == 1
    assert destroyed == []


def test_unbind_thread_releases():
    destroyed = []
    manager = BindingManager(destroyed.append)
    thread = _FakeThread()
    a = ResourceContainer(1, "a")
    manager.bind_thread(thread, a, now=0.0)
    manager.unbind_thread(thread)
    assert thread.resource_binding is None
    assert destroyed == [a]
