"""ResourceUsage / SystemAccounting ledgers."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.accounting import (
    CUMULATIVE_FIELDS,
    DIMENSIONS,
    FIELDS,
    ResourceUsage,
    SystemAccounting,
)

_FLOAT = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
_INT = st.integers(min_value=-10**12, max_value=10**12)


def _ledgers():
    """Random ledgers, each field drawn with its declared type."""
    return st.builds(ResourceUsage, **{
        f.name: _FLOAT if isinstance(f.default, float) else _INT
        for f in dataclasses.fields(ResourceUsage)
    })


def test_cpu_charge_accumulates():
    usage = ResourceUsage()
    usage.charge_cpu(10.0)
    usage.charge_cpu(5.0, network=True)
    usage.charge_cpu(2.0, syscall=True)
    assert usage.cpu_us == 17.0
    assert usage.cpu_network_us == 5.0
    assert usage.cpu_syscall_us == 2.0


def test_negative_cpu_charge_rejected():
    with pytest.raises(ValueError):
        ResourceUsage().charge_cpu(-1.0)


def test_memory_charge_and_peak():
    usage = ResourceUsage()
    usage.charge_memory(100)
    usage.charge_memory(50)
    usage.charge_memory(-120)
    assert usage.memory_bytes == 30
    assert usage.memory_peak_bytes == 150


def test_memory_negative_balance_rejected():
    usage = ResourceUsage()
    usage.charge_memory(10)
    with pytest.raises(ValueError):
        usage.charge_memory(-20)


def test_snapshot_is_independent():
    usage = ResourceUsage()
    usage.charge_cpu(5.0)
    snap = usage.snapshot()
    usage.charge_cpu(5.0)
    assert snap.cpu_us == 5.0
    assert usage.cpu_us == 10.0


def test_addition_is_elementwise():
    a = ResourceUsage(cpu_us=1.0, packets_received=2)
    b = ResourceUsage(cpu_us=3.0, packets_received=5, connections_accepted=1)
    total = a + b
    assert total.cpu_us == 4.0
    assert total.packets_received == 7
    assert total.connections_accepted == 1


def test_validate_clean_ledger():
    usage = ResourceUsage()
    usage.charge_cpu(10.0, network=True)
    usage.charge_cpu(4.0, syscall=True)
    usage.charge_memory(100)
    usage.charge_memory(-40)
    assert usage.validate() == []


def test_validate_catches_negative_cpu_fields():
    for name in ("cpu_us", "cpu_network_us", "cpu_syscall_us"):
        usage = ResourceUsage()
        setattr(usage, name, -1.0)
        assert any(name in p for p in usage.validate())


def test_validate_catches_negative_memory():
    usage = ResourceUsage()
    usage.memory_bytes = -5
    problems = usage.validate()
    assert any("memory_bytes" in p for p in problems)


def test_validate_catches_peak_below_current():
    usage = ResourceUsage()
    usage.memory_bytes = 100
    usage.memory_peak_bytes = 50
    assert any("memory_peak_bytes" in p for p in usage.validate())


def test_validate_catches_subledger_overflow():
    usage = ResourceUsage(cpu_us=10.0, cpu_network_us=8.0, cpu_syscall_us=5.0)
    assert any("sub-ledgers exceed total" in p for p in usage.validate())


def test_validate_tolerates_float_slop():
    """Disjoint sub-ledgers summing to cpu_us within float tolerance are
    fine -- validate() must not cry wolf on healthy accumulation."""
    usage = ResourceUsage()
    for _ in range(1000):
        usage.charge_cpu(0.1, network=True)
    for _ in range(1000):
        usage.charge_cpu(0.1, syscall=True)
    assert usage.validate() == []


def test_validate_catches_negative_counts():
    usage = ResourceUsage()
    usage.packets_dropped = -1
    assert any("packets_dropped" in p for p in usage.validate())


def test_dimension_map_partitions_the_fields():
    declared = [name for names in DIMENSIONS.values() for name in names]
    assert sorted(declared) == sorted(FIELDS)
    assert len(declared) == len(set(declared))
    assert DIMENSIONS["fd"] == ()
    assert set(FIELDS) - set(CUMULATIVE_FIELDS) == {
        "memory_bytes", "memory_peak_bytes",
    }


@settings(max_examples=60, deadline=None)
@given(_ledgers(), _ledgers())
def test_ledger_arithmetic_follows_the_declaration(a, b):
    snap = a.snapshot()
    assert snap == a and snap is not a
    for name in FIELDS:
        setattr(snap, name, getattr(snap, name) + 1)
        assert getattr(a, name) != getattr(snap, name)
    total = a + b
    for name in FIELDS:
        assert getattr(total, name) == getattr(a, name) + getattr(b, name)
        if isinstance(getattr(a, name), int):
            assert type(getattr(total, name)) is int


@settings(max_examples=60, deadline=None)
@given(_ledgers())
def test_validate_names_every_negative_field(usage):
    problems = usage.validate()
    for name in FIELDS:
        if getattr(usage, name) < 0:
            assert any(p.startswith(f"{name} is negative") for p in problems)


def test_utilization():
    acct = SystemAccounting(total_cpu_us=500_000.0)
    assert acct.utilization(1_000_000.0) == pytest.approx(0.5)
    assert acct.utilization(0.0) == 0.0
    # Clamped at 1.0 even with float accumulation slop.
    acct.total_cpu_us = 1_100_000.0
    assert acct.utilization(1_000_000.0) == 1.0
