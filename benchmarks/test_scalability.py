"""Tier-2 perf smokes: per-event costs must not grow with population.

Run with ``pytest -m perf benchmarks/``.  Each smoke measures a small
and a large point back to back in one process (the pick loop lives in
``benchmarks/pickloop.py``), so machine speed cancels out of the ratio
and no recorded baseline is needed.

- pick cost, 10 vs 1000 containers;
- the kernel's scheduler-binding prune tick, 10 vs 1000 idle threads.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.pickloop import build_hierarchy, us_per_pick
from repro import Host, SystemMode
from repro.syscall import api

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


#: Allowed growth of the prune tick from 10 to 1000 idle threads.  The
#: tick visits only threads whose scheduler binding gained a member;
#: a scan over every thread paid ~100x.
MAX_PRUNE_GROWTH = 3.0


def _best_us_per_call(call, calls: int, repeats: int = 5) -> float:
    """Best-of-``repeats`` wall microseconds per ``call()``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - started)
    return best * 1e6 / calls


def _idle_host(threads: int) -> Host:
    """An RC host whose ``threads`` processes are all asleep."""
    host = Host(mode=SystemMode.RC, seed=3)

    def body():
        yield api.Sleep(1e12)

    for index in range(threads):
        host.kernel.spawn_process(f"idle{index}", body)
    host.run(until_us=1_000.0)
    return host


def _us_per_prune_tick(threads: int) -> float:
    kernel = _idle_host(threads).kernel
    return _best_us_per_call(kernel._prune_tick, 2_000)


@pytest.mark.perf
def test_prune_tick_cost_does_not_follow_idle_threads(repro_report):
    small = _us_per_prune_tick(10)
    large = _us_per_prune_tick(1000)
    growth = large / small
    repro_report(
        f"perf smoke: prune tick {small:.3f}us at 10 idle threads, "
        f"{large:.3f}us at 1000 ({growth:.1f}x)"
    )
    assert growth < MAX_PRUNE_GROWTH, (
        f"prune tick grew {growth:.1f}x from 10 to 1000 idle threads -- "
        "the pass is scanning every thread again"
    )

