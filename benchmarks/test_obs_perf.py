"""Tier-2 perf smoke: windowed telemetry must stay cheap.

Run with ``pytest -m perf benchmarks/``.  The recorded numbers live in
``BENCH_obs.json`` at the repo root (regenerate with ``python -m repro
bench-obs``).  Two kinds of pin:

* the **recorded artifact** itself must document the PR's perf floor:
  trace-off drain throughput within noise of the bare engine (measured
  fresh), and the windowed pipeline at most 15% over
  plain observe on the end-to-end workload (the target is <=10%; the
  recording allows a noise margin);
* a **fresh smoke** re-measures one end-to-end cell per mode and fails
  only on gross regression (1.5x), wide enough to absorb machine noise,
  tight enough to catch the close path falling off its vectorized
  fast path.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.experiments import bench_obs

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORDED = REPO_ROOT / "BENCH_obs.json"

#: The recorded windows-vs-observe end-to-end overhead must stay under
#: this (target <=10% plus a recording-noise margin).
RECORDED_WINDOWS_OVERHEAD = 0.15

#: Trace-off drain must be within this factor of the bare engine's
#: drain throughput (same workload, no observability): the
#: zero-overhead trace-off property.
TRACE_OFF_FACTOR = 1.5

#: Fresh re-measure: gross-regression bound for windows vs observe.
REGRESSION_FACTOR = 1.5


def _recorded() -> dict:
    if not RECORDED.exists():
        pytest.skip("BENCH_obs.json not recorded; run `python -m repro bench-obs`")
    return json.loads(RECORDED.read_text())


@pytest.mark.perf
def test_recorded_windows_overhead_meets_floor(repro_report):
    overheads = _recorded()["overheads"]["end_to_end"]
    repro_report(
        "perf smoke: recorded windows-vs-observe e2e overhead "
        f"{overheads['windows_vs_observe']:+.1%} "
        f"(floor {RECORDED_WINDOWS_OVERHEAD:+.0%})"
    )
    assert overheads["windows_vs_observe"] <= RECORDED_WINDOWS_OVERHEAD, (
        f"recorded windowed-telemetry overhead "
        f"{overheads['windows_vs_observe']:+.1%} exceeds "
        f"{RECORDED_WINDOWS_OVERHEAD:+.0%}; re-run `python -m repro "
        f"bench-obs` on a quiet machine or fix the close path"
    )


@pytest.mark.perf
def test_recorded_drain_attachment_is_cheap():
    """Attaching the pipeline must not tax uninstrumented dispatch."""
    overheads = _recorded()["overheads"]["drain"]
    assert overheads["windows_vs_observe"] <= 0.10


@pytest.mark.perf
def test_trace_off_matches_bare_engine(repro_report):
    """The ``off`` cell IS the engine fast path: one predicate per site."""
    best = None
    for _ in range(2):
        sim = bench_obs._drain_sim(
            bench_obs.DRAIN_CONTAINERS, bench_obs.DRAIN_EVENTS + 2_000
        )
        sim.run(max_events=2_000)
        started = time.perf_counter()
        sim.run(max_events=bench_obs.DRAIN_EVENTS)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    bare = bench_obs.DRAIN_EVENTS / best
    off = next(
        point["events_per_sec"]
        for point in _recorded()["drain"]
        if point["mode"] == "off"
    )
    repro_report(
        f"perf smoke: trace-off drain {off:,.0f} ev/s vs bare engine "
        f"{bare:,.0f} ev/s"
    )
    assert off * TRACE_OFF_FACTOR >= bare, (
        f"trace-off drain {off:,.0f} ev/s fell more than "
        f"{TRACE_OFF_FACTOR}x below the bare engine's {bare:,.0f} ev/s"
    )


@pytest.mark.perf
def test_fresh_windows_overhead_within_gross_bound(repro_report):
    """One interleaved repeat per mode; catches the close path going
    quadratic without being flaky about single-digit percentages."""
    best = {}
    for _ in range(2):
        for mode in ("observe", "windows"):
            elapsed, _events = bench_obs._e2e_once(mode)
            if mode not in best or elapsed < best[mode]:
                best[mode] = elapsed
    ratio = best["windows"] / best["observe"]
    repro_report(
        f"perf smoke: fresh windows/observe e2e ratio {ratio:.2f} "
        f"(bound {REGRESSION_FACTOR}x)"
    )
    assert ratio <= REGRESSION_FACTOR, (
        f"windowed telemetry ran {ratio:.2f}x plain observe "
        f"(bound {REGRESSION_FACTOR}x)"
    )
