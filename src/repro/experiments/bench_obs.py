"""Observability overhead benchmark: ``python -m repro bench-obs``.

PR 6 pinned the engine's hot paths; PR 9 hangs a telemetry pipeline
off the trace bus.  This benchmark prices that, on the two standard
workloads, across three instrumentation modes:

* ``off``      -- no observability attached (the PR 6 fast path: one
  ``trace.active`` predicate per instrumented site, no records built);
* ``observe``  -- the PR 4 registry/profiler/tracer collectors;
* ``windows``  -- collectors plus the PR 9 windowed time-series
  pipeline, SLO rules, and watchdog (100 ms tumbling windows).

Workloads:

* ``drain``      -- a 1000-container pre-armed event backlog: pure
  event-loop dispatch, no instrumented sites fire, so any cost here is
  pipeline *attachment* overhead;
* ``end_to_end`` -- a full RC kernel with 100 CPU-bound processes for
  one simulated second: every slice publishes ``cpu.slice``, the
  worst realistic record rate per simulated second.

Writes ``BENCH_obs.json``.  The perf floor
(``benchmarks/test_obs_perf.py``) pins: trace-off overhead within
noise of running without this PR at all, and windows-on at most 10%
over plain observe on the end-to-end point.
"""

from __future__ import annotations

import json
import os
import time

from repro.obs import observe
from repro.sim.engine import Simulation

#: Best-of repeats per cell (same protocol as the other benches).
REPEATS = 3

#: The drain workload: 1000 containers' worth of pre-armed events.
DRAIN_CONTAINERS = 1000
DRAIN_EVENTS = 100_000

#: The end-to-end workload: full RC kernel, CPU-bound processes.  The
#: horizon is long enough that one repeat takes a few hundred ms of
#: wall time -- short runs drown the mode deltas in timer noise.
E2E_PROCESSES = 100
E2E_HORIZON_US = 3_000_000.0

#: Window span used by the ``windows`` mode.
WINDOW_US = 100_000.0

MODES = ("off", "observe", "windows")


def _noop() -> None:
    pass


def _drain_sim(containers: int, events: int) -> Simulation:
    """A pre-armed backlog: ``events / containers`` events per
    container, one staggered round of all containers per simulated ms."""
    sim = Simulation()
    per = max(1, events // containers)
    for j in range(per):
        base = 1_000.0 * j
        for i in range(containers):
            sim.at(base + i * 0.9, _noop)
    return sim


def _spinner_body(compute_us: float):
    """A process body that computes forever in ``compute_us`` bursts."""
    from repro.syscall import api

    def body():
        while True:
            yield api.Compute(compute_us)

    return body


def _drain_point(mode: str) -> dict:
    """Dispatch the pre-armed backlog under one instrumentation mode."""
    best = None
    for _ in range(REPEATS):
        sim = _drain_sim(DRAIN_CONTAINERS, DRAIN_EVENTS + 2_000)
        if mode != "off":
            observe.Observability(
                sim,
                register=False,
                window_us=WINDOW_US if mode == "windows" else 0.0,
            )
        sim.run(max_events=2_000)  # warm caches
        started = time.perf_counter()
        sim.run(max_events=DRAIN_EVENTS)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return {
        "mode": mode,
        "containers": DRAIN_CONTAINERS,
        "events": DRAIN_EVENTS,
        "wall_s": round(best, 6),
        "events_per_sec": round(DRAIN_EVENTS / best, 1),
    }


def _e2e_once(mode: str) -> tuple:
    """One timed run of the full-kernel spinner workload under ``mode``."""
    from repro import Host, SystemMode

    previous = os.environ.get(observe.WINDOWS_ENV)
    if mode == "windows":
        os.environ[observe.WINDOWS_ENV] = f"{WINDOW_US:g}"
    elif previous is not None:
        del os.environ[observe.WINDOWS_ENV]
    try:
        host = Host(mode=SystemMode.RC, seed=7, observe=(mode != "off"))
    finally:
        if previous is None:
            os.environ.pop(observe.WINDOWS_ENV, None)
        else:
            os.environ[observe.WINDOWS_ENV] = previous
    body = _spinner_body(800.0)
    for index in range(E2E_PROCESSES):
        host.kernel.spawn_process(f"spin{index}", body)
    started = time.perf_counter()
    host.sim.run(until=E2E_HORIZON_US)
    elapsed = time.perf_counter() - started
    events = host.sim.events_dispatched
    # Release this run's host before the next cell runs: bench hosts
    # never export, and keeping their slice buffers alive skews later
    # cells with garbage-collector pressure.
    observe.drain_installed()
    return elapsed, events


def _e2e_points() -> list:
    """All end-to-end cells, repeats interleaved round-robin across the
    modes so machine-speed drift during the bench biases every mode
    alike (sequential per-mode repeats read drift as mode overhead)."""
    best: dict = {}
    for _ in range(REPEATS):
        for mode in MODES:
            elapsed, events = _e2e_once(mode)
            if mode not in best or elapsed < best[mode][0]:
                best[mode] = (elapsed, events)
    points = []
    for mode in MODES:
        elapsed, events = best[mode]
        points.append(
            {
                "mode": mode,
                "processes": E2E_PROCESSES,
                "sim_seconds": E2E_HORIZON_US / 1e6,
                "wall_s": round(elapsed, 6),
                "events": events,
                "events_per_sec": round(events / elapsed, 1),
            }
        )
    return points


def _overhead(points: list) -> dict:
    """Relative overhead of each mode vs ``off`` (and windows vs observe)."""
    by_mode = {point["mode"]: point["wall_s"] for point in points}
    off = by_mode["off"]
    out = {
        "observe_vs_off": round(by_mode["observe"] / off - 1.0, 4),
        "windows_vs_off": round(by_mode["windows"] / off - 1.0, 4),
        "windows_vs_observe": round(
            by_mode["windows"] / by_mode["observe"] - 1.0, 4
        ),
    }
    return out


def run() -> dict:
    """All cells; returns the BENCH_obs document."""
    drain = [_drain_point(mode) for mode in MODES]
    e2e = _e2e_points()
    return {
        "drain": drain,
        "end_to_end": e2e,
        "overheads": {
            "drain": _overhead(drain),
            "end_to_end": _overhead(e2e),
        },
    }


def render(result: dict) -> str:
    lines = ["Observability overhead (best of {} runs)".format(REPEATS)]
    for section in ("drain", "end_to_end"):
        lines.append(f"\n-- {section} --")
        lines.append(f"{'mode':10s}{'wall s':>12s}{'events/s':>16s}")
        for point in result[section]:
            lines.append(
                f"{point['mode']:10s}{point['wall_s']:>12.4f}"
                f"{point['events_per_sec']:>16,.0f}"
            )
        overheads = result["overheads"][section]
        lines.append(
            "overhead: observe {:+.1%}, windows {:+.1%} "
            "(windows vs observe {:+.1%})".format(
                overheads["observe_vs_off"],
                overheads["windows_vs_off"],
                overheads["windows_vs_observe"],
            )
        )
    return "\n".join(lines)


def write_json(result: dict, path: str = "BENCH_obs.json") -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main() -> None:
    result = run()
    print(render(result))
    print(f"[wrote {write_json(result)}]")


if __name__ == "__main__":
    main()
