"""KernelConfig semantics and mode wiring."""

import pytest

from repro import Host, SystemMode
from repro.kernel.kernel import KernelConfig
from repro.net.procmodel import NetMode
from repro.sched.lottery import LotteryScheduler


def test_mode_to_net_mode_mapping():
    assert SystemMode.UNMODIFIED.net_mode is NetMode.SOFTIRQ
    assert SystemMode.LRP.net_mode is NetMode.LRP
    assert SystemMode.RC.net_mode is NetMode.RC


def test_container_api_defaults_follow_mode():
    assert KernelConfig(mode=SystemMode.RC).container_api_enabled
    assert not KernelConfig(mode=SystemMode.UNMODIFIED).container_api_enabled
    assert not KernelConfig(mode=SystemMode.LRP).container_api_enabled


def test_container_api_override():
    config = KernelConfig(mode=SystemMode.LRP, container_api=True)
    assert config.container_api_enabled
    config = KernelConfig(mode=SystemMode.RC, container_api=False)
    assert not config.container_api_enabled


def test_host_mode_overrides_config_mode():
    config = KernelConfig(mode=SystemMode.UNMODIFIED)
    host = Host(mode=SystemMode.LRP, seed=1, config=config)
    assert host.kernel.config.mode is SystemMode.LRP


def test_softirq_mode_has_no_net_threads():
    host = Host(mode=SystemMode.UNMODIFIED, seed=1)
    host.kernel.spawn_process("p")
    assert not host.kernel.net_threads


def test_lrp_and_rc_modes_create_net_threads():
    for mode in (SystemMode.LRP, SystemMode.RC):
        host = Host(mode=mode, seed=1)
        process = host.kernel.spawn_process("p")
        assert process.pid in host.kernel.net_threads


def test_scheduler_factory_override():
    config = KernelConfig(
        mode=SystemMode.RC,
        scheduler_factory=lambda kernel: LotteryScheduler(
            kernel.sim.rng.fork("lot")
        ),
    )
    host = Host(mode=SystemMode.RC, seed=1, config=config)
    assert isinstance(host.kernel.scheduler, LotteryScheduler)


def test_host_run_argument_validation():
    host = Host(mode=SystemMode.RC, seed=1)
    with pytest.raises(ValueError):
        host.run()
    with pytest.raises(ValueError):
        host.run(seconds=1.0, until_us=5.0)


def test_window_timer_keeps_rolling():
    host = Host(mode=SystemMode.RC, seed=1)
    host.run(seconds=0.1)
    # 10ms windows over 100ms => about 10 rolls.
    assert host.kernel.scheduler.window_rolls >= 9


@pytest.mark.parametrize("value", [0.0, -4.0])
@pytest.mark.parametrize("field", ["quantum_us", "window_us"])
def test_non_positive_quantum_or_window_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        Host(mode=SystemMode.RC, config=KernelConfig(**{field: value}))
