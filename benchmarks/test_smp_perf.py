"""Tier-2 perf smoke for the SMP fast path.

Drives the per-CPU protocol over a flat field of per-request principals
with churn (``benchmarks/pickloop.py``).  Each check compares points
measured back to back in one process, so machine speed cancels out of
the ratio and no recorded baseline is needed.

Run with ``pytest -m perf benchmarks/``.
"""

from __future__ import annotations

import pytest

from benchmarks.pickloop import build_flat, us_per_pick

#: Allowed growth in us/pick from 10 to 1000 containers at 8 cores.
#: Per-CPU shards read 3-4x; the pre-rework scheduler, which had every
#: core filter one global index through an exclude set, paid 14.4x
#: (15.19 -> 218.5 us/pick).
MAX_GROWTH = 8.0


def _us_per_pick(leaves: int, n_cpus: int) -> float:
    manager, sched = build_flat(leaves, n_cpus)
    return us_per_pick(sched, manager=manager)


@pytest.mark.perf
def test_smp_pick_cost_scales_sublinearly_at_8_cpus(repro_report):
    small = _us_per_pick(10, 8)
    large = _us_per_pick(1000, 8)
    growth = large / small
    repro_report(
        f"perf smoke: SMP pick at 8 cores {small:.3f}us at 10 containers, "
        f"{large:.3f}us at 1000 ({growth:.1f}x)"
    )
    assert growth < MAX_GROWTH, (
        f"SMP pick cost grew {growth:.1f}x from 10 to 1000 containers at "
        "8 cores -- cores are scanning each other's work again"
    )


@pytest.mark.perf
def test_smp_pick_beats_single_core_pick_rate_per_core():
    """Sharding must not serialize: driving 4 cores round-robin costs
    less per pick than 4x the single-core cost (no global-lock-style
    rescan of all cores' work on every pick)."""
    single = _us_per_pick(1000, 1)
    quad = _us_per_pick(1000, 4)
    assert quad <= single * 4.0
