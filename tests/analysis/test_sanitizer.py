"""Charging-conservation sanitizer: clean runs stay clean and
byte-identical; tampering with any ledger is detected."""

import pytest

from repro import Host, SystemMode
from repro.analysis import sanitizer
from repro.analysis.sanitizer import ChargingSanitizer
from repro.kernel.cpu import InterruptJob
from repro.syscall import api


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Each test sees only the sanitizers it installs."""
    sanitizer.drain_installed()
    yield
    sanitizer.drain_installed()


def _busy_host(sanitize=True, seed=7):
    """A host with real CPU traffic: two compute threads plus periodic
    interrupts, some charged, some unaccounted."""
    host = Host(mode=SystemMode.RC, seed=seed, sanitize=sanitize)
    container = host.kernel.containers.create("serving")

    def program():
        for _ in range(20):
            yield api.Compute(250.0)
            yield api.Sleep(50.0)

    host.kernel.spawn_process("a", program)
    host.kernel.spawn_process("b", program)
    for i in range(10):
        charge = container if i % 2 == 0 else None
        host.sim.at(
            100.0 + i * 400.0,
            lambda c=charge: host.kernel.cpu.post_hard_interrupt(
                InterruptJob(cost_us=20.0, action=lambda: None, charge=c)
            ),
        )
    return host


# ---------------------------------------------------------------------------
# Activation paths
# ---------------------------------------------------------------------------


def test_flag_installs_sanitizer():
    host = Host(sanitize=True)
    assert isinstance(host.kernel.sanitizer, ChargingSanitizer)
    assert host.kernel.cpu.sanitizer is host.kernel.sanitizer
    assert sanitizer.installed() == [host.kernel.sanitizer]


def test_default_host_has_no_sanitizer():
    host = Host()
    assert host.kernel.sanitizer is None
    assert host.kernel.cpu.sanitizer is None


def test_env_var_installs_sanitizer(monkeypatch):
    monkeypatch.setenv(sanitizer.SANITIZE_ENV, "1")
    assert sanitizer.env_enabled()
    host = Host()
    assert isinstance(host.kernel.sanitizer, ChargingSanitizer)


def test_env_var_zero_means_off(monkeypatch):
    monkeypatch.setenv(sanitizer.SANITIZE_ENV, "0")
    assert not sanitizer.env_enabled()
    assert Host().kernel.sanitizer is None


def test_env_var_empty_means_off(monkeypatch):
    monkeypatch.setenv(sanitizer.SANITIZE_ENV, "")
    assert not sanitizer.env_enabled()
    assert Host().kernel.sanitizer is None


@pytest.mark.parametrize("value", ["false", "no", "off", "true", "2", " 1"])
def test_env_var_other_values_fail_loudly(monkeypatch, value):
    # Only "", "0" and "1" are valid: "false" used to turn the
    # sanitizer on, since every value but ""/"0" counted as on.
    monkeypatch.setenv(sanitizer.SANITIZE_ENV, value)
    with pytest.raises(ValueError, match="REPRO_SANITIZE"):
        sanitizer.env_enabled()
    with pytest.raises(ValueError, match="REPRO_SANITIZE"):
        Host()


@pytest.mark.parametrize("value", ["no", "false", "yes"])
def test_trace_env_var_other_values_fail_loudly(monkeypatch, value):
    # The observability switch shares the one resolver.
    from repro.obs import observe

    monkeypatch.setenv(observe.TRACE_ENV, value)
    with pytest.raises(ValueError, match="REPRO_TRACE"):
        observe.env_enabled()
    with pytest.raises(ValueError, match="REPRO_TRACE"):
        Host()


def test_drain_installed_empties_registry():
    Host(sanitize=True)
    Host(sanitize=True)
    assert len(sanitizer.drain_installed()) == 2
    assert sanitizer.installed() == []


# ---------------------------------------------------------------------------
# Clean runs
# ---------------------------------------------------------------------------


def test_clean_run_has_no_violations():
    host = _busy_host()
    host.run(seconds=0.01)
    checker = host.kernel.sanitizer
    assert checker.slices_checked > 0
    assert checker.finish() == []
    assert "OK" in checker.summary()


def test_finish_is_idempotent():
    host = _busy_host()
    host.run(seconds=0.01)
    checker = host.kernel.sanitizer
    first = checker.finish()
    sweeps = checker.sweeps
    assert checker.finish() == first
    assert checker.sweeps == sweeps


def test_sanitized_run_is_byte_identical():
    """The sanitizer observes; it must not perturb the event stream."""

    def digest(sanitize):
        host = _busy_host(sanitize=sanitize, seed=13)
        end = host.run(seconds=0.01)
        acct = host.kernel.cpu.accounting
        return (
            end,
            host.sim.events_dispatched,
            acct.total_cpu_us,
            acct.interrupt_cpu_us,
            acct.unaccounted_cpu_us,
            acct.context_switches,
        )

    assert digest(True) == digest(False)


def test_interrupt_and_entity_charges_both_mirrored():
    host = _busy_host()
    host.run(seconds=0.01)
    checker = host.kernel.sanitizer
    assert checker._charged_entity_us > 0
    assert checker._charged_interrupt_us > 0
    assert checker._unaccounted_us > 0


# ---------------------------------------------------------------------------
# Violation detection (each check must actually fire)
# ---------------------------------------------------------------------------


def _checks(violations):
    return {v.check for v in violations}


def test_detects_charge_on_destroyed_container():
    host = Host(mode=SystemMode.RC, seed=3, sanitize=True)
    victim = host.kernel.containers.create("victim")
    host.kernel.containers.release(victim)
    assert not victim.alive
    host.kernel.cpu.post_hard_interrupt(
        InterruptJob(cost_us=5.0, action=lambda: None, charge=victim)
    )
    host.run(until_us=100.0)
    checks = _checks(host.kernel.sanitizer.finish())
    assert "dead-container-charge" in checks
    # The charge landed on a ledger outside all_containers(), so the
    # conservation sweep must notice it leaked too.
    assert "ledger-conservation" in checks


def test_detects_accounting_counter_drift():
    host = _busy_host()
    host.run(seconds=0.002)
    # Simulate a code path that books CPU around the choke point.
    host.kernel.cpu.accounting.total_cpu_us += 123.0
    host.run(seconds=0.002)
    assert "accounting-total" in _checks(host.kernel.sanitizer.finish())


def test_detects_ledger_tampering():
    host = _busy_host()
    host.run(seconds=0.002)
    container = host.kernel.containers.create("tampered")
    container.usage.cpu_network_us = container.usage.cpu_us + 100.0
    assert "ledger-integrity" in _checks(host.kernel.sanitizer.finish())


def test_detects_scheduler_charge_mismatch():
    host = _busy_host()
    host.run(seconds=0.002)
    host.kernel.scheduler.charged_us_total += 42.0
    assert "scheduler-reconcile" in _checks(host.kernel.sanitizer.finish())


def test_violation_render_carries_context():
    host = Host(mode=SystemMode.RC, seed=3, sanitize=True)
    victim = host.kernel.containers.create("victim")
    host.kernel.containers.release(victim)
    host.kernel.cpu.post_hard_interrupt(
        InterruptJob(cost_us=5.0, action=lambda: None, charge=victim)
    )
    host.run(until_us=100.0)
    violations = host.kernel.sanitizer.finish()
    dead = [v for v in violations if v.check == "dead-container-charge"]
    assert len(dead) == 1
    rendered = dead[0].render()
    assert "victim" in rendered and "t=" in rendered


# ---------------------------------------------------------------------------
# Scheduler note_charge plumbing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mode", [SystemMode.RC, SystemMode.LRP, SystemMode.UNMODIFIED]
)
def test_scheduler_charge_totals_accumulate(mode):
    """All three scheduler implementations feed charged_us_total, so the
    reconcile check covers every system mode."""
    host = Host(mode=mode, seed=9, sanitize=True)

    def program():
        yield api.Compute(2_000.0)

    host.kernel.spawn_process("p", program)
    host.run(seconds=0.01)
    assert host.kernel.scheduler.charged_us_total > 0.0
    assert host.kernel.sanitizer.finish() == []
