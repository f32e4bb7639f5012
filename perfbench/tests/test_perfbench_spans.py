"""The layer tracer: self-time arithmetic and clean install/uninstall."""

import importlib

import pytest

from spans import MARK, TARGETS, LayerTracer, layer_of_module


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_spans_subtract_children_from_parents():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    net = tracer.wrap("net", lambda: clock.advance(3.0))

    def kernel_body():
        clock.advance(2.0)
        net()

    kernel = tracer.wrap("kernel", kernel_body)

    def sim_body():
        clock.advance(1.0)
        kernel()
        clock.advance(4.0)

    tracer.wrap("sim", sim_body)()
    assert tracer.self_s["sim"] == 5.0
    assert tracer.self_s["kernel"] == 2.0
    assert tracer.self_s["net"] == 3.0
    assert sum(tracer.self_s.values()) == clock.now
    assert tracer.calls["sim"] == tracer.calls["kernel"] == tracer.calls["net"] == 1


def test_recursive_spans_are_not_counted_twice():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def body(depth):
        clock.advance(1.0)
        if depth:
            recurse(depth - 1)

    recurse = tracer.wrap("sched", body)
    recurse(4)
    assert tracer.self_s["sched"] == 5.0 == clock.now
    assert tracer.calls["sched"] == 5


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def fails():
        clock.advance(2.0)
        raise KeyError("boom")

    inner = tracer.wrap("fs", fails)

    def outer_body():
        clock.advance(1.0)
        with pytest.raises(KeyError):
            inner()

    tracer.wrap("kernel", outer_body)()
    assert tracer.self_s["kernel"] == 1.0 and tracer.self_s["fs"] == 2.0
    assert not tracer._stack


def test_reset_zeroes_totals_seen_by_existing_wrappers():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    span = tracer.wrap("io", lambda: clock.advance(1.0))
    span()
    tracer.reset()
    span()
    assert tracer.self_s["io"] == 1.0 and tracer.calls["io"] == 1


def test_layer_of_module_maps_packages_and_aliases():
    assert layer_of_module("repro.kernel.cpu") == "kernel"
    assert layer_of_module("repro.syscall.api") == "kernel"
    assert layer_of_module("repro.workloads.httpload") == "apps"
    assert layer_of_module("repro.experiments.fig14_synflood") == "apps"
    assert layer_of_module("repro.obs.registry") is None
    assert layer_of_module("suite") is None


def _class_attrs():
    from repro.sim.engine import Simulation

    seen = {}
    for module, cls_name, attr, _layer in TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        seen[(cls, attr)] = cls.__dict__.get(attr)
    for attr in ("at", "after"):
        seen[(Simulation, attr)] = Simulation.__dict__[attr]
    return seen


def test_install_wraps_every_target_and_uninstall_restores_it():
    before = _class_attrs()
    tracer = LayerTracer().install()
    try:
        for (cls, attr), original in before.items():
            current = cls.__dict__[attr]
            assert current is not original
            fn = current.fget if isinstance(current, property) else current
            if attr not in ("at", "after"):
                assert getattr(fn, MARK)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _class_attrs()
    assert all(after[key] is before[key] for key in before)


def test_a_missing_entry_point_is_skipped_not_fatal():
    tracer = LayerTracer().install(targets=(
        ("repro.kernel.kernel", "Kernel", "no_such_method", "kernel"),
        ("repro.no_such_module", "Thing", "run", "sim"),
        ("repro.kernel.kernel", "Kernel", "wake", "kernel"),
    ))
    try:
        assert tracer.skipped == [
            "repro.kernel.kernel.Kernel.no_such_method",
            "repro.no_such_module.Thing.run",
        ]
    finally:
        tracer.uninstall()
    from repro.kernel.kernel import Kernel

    assert not hasattr(Kernel.wake, MARK)


def test_event_callbacks_are_charged_to_their_package():
    from repro.sim.engine import Simulation

    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    tracer.install()
    try:
        from repro.kernel.kernel import Kernel

        sim = Simulation(seed=1)
        kernel = Kernel(sim)
        assert tracer.wrap_callback(kernel.net_input) == kernel.net_input
        foreign = tracer.wrap_callback(len)
        assert foreign is len
        assert getattr(tracer.wrap_callback(kernel.cpu._dispatch), MARK) == "kernel"
        fired = []
        sim.after(5.0, fired.append, "x")
        sim.run(until=10.0)
        assert fired == ["x"]
        assert tracer.calls["sim"] == 1
    finally:
        tracer.uninstall()
