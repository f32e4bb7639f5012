"""Tier-2 perf smoke: pick cost must not grow with container count.

Run with ``pytest -m perf benchmarks/``.  Both points are measured back
to back in one process (``benchmarks/pickloop.py``), so machine speed
cancels out of the ratio and no recorded baseline is needed.
"""

from __future__ import annotations

import pytest

from benchmarks.pickloop import build_hierarchy, us_per_pick

#: Allowed growth in us/pick from 10 to 1000 containers.  Indexed picks
#: are near-flat (~1.5x from cache effects); the linear-scan scheduler
#: paid ~80x.
MAX_GROWTH = 8.0


@pytest.mark.perf
def test_pick_cost_scales_sublinearly(repro_report):
    _manager, small_sched = build_hierarchy(10)
    _manager, large_sched = build_hierarchy(1000)
    small = us_per_pick(small_sched)
    large = us_per_pick(large_sched)
    growth = large / small
    repro_report(
        f"perf smoke: pick {small:.3f}us at 10 containers, "
        f"{large:.3f}us at 1000 ({growth:.1f}x)"
    )
    assert growth < MAX_GROWTH, (
        f"pick cost grew {growth:.1f}x from 10 to 1000 containers -- "
        "scheduler is scanning linearly again"
    )
