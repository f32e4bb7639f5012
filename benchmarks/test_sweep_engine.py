"""Tier-2 perf smoke: the sweep cache must make warm re-runs ~free.

Run with ``pytest -m perf benchmarks/``.  A real Figure 11 point is
computed cold into a scratch cache and then re-fetched warm; the warm
fetch must cost under 10% of the cold compute; in practice a warm
fetch is a single pickle load and lands around 0.01%.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig11_priority, sweep

pytestmark = pytest.mark.perf


def _one_point_grid():
    return fig11_priority.grid(fast=True, points=[0])[:1]


def test_warm_cache_fetch_under_10pct_of_cold(tmp_path, repro_report):
    grid = _one_point_grid()
    cold = sweep.SweepStats()
    cold_results = sweep.run_points(
        grid, cache=True, cache_dir=tmp_path, stats=cold
    )
    warm = sweep.SweepStats()
    warm_results = sweep.run_points(
        grid, cache=True, cache_dir=tmp_path, stats=warm
    )
    assert warm.cache_hits == len(grid)
    assert warm_results == cold_results
    assert warm.wall_s < 0.10 * cold.wall_s, (
        f"warm fetch {warm.wall_s:.4f}s vs cold {cold.wall_s:.4f}s"
    )
    repro_report(
        "sweep cache smoke: cold "
        f"{cold.wall_s:.3f}s -> warm {warm.wall_s:.5f}s "
        f"({warm.wall_s / cold.wall_s:.5%} of cold)"
    )
