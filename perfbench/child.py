"""One benchmark run: boot a workload in this fresh interpreter, warm it
up, time a window of fixed simulated chunks, print one JSON line.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the repo's ``src``::

    python3 perfbench/child.py --workload synflood --seed 1 --trace 0

The JSON holds the monotonic time at which the timed window started (the
parent turns it into set-up time), each chunk's wall seconds and ops,
the timings of a calibration loop run between chunks, the simulated
outputs the parent checks, the window's exact per-layer counts, and,
with ``--trace 1``, the per-layer self time and calls.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import time

#: Iterations of the calibration loop (about 13 ms on the reference host).
CALIBRATION_LOOPS = 200_000


def calibrate() -> float:
    """Wall seconds of a fixed integer loop that touches no ``repro``
    code, with the collector off so the simulation's heap cannot slow
    it.  It tracks how fast the host runs Python right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def run(workload_name: str, seed: int, trace: bool) -> dict:
    """Boot, warm up and time one workload; returns the result record."""
    from suite import WORKLOADS, counters, exact_metrics

    tracer = None
    if trace:
        from spans import LayerTracer

        tracer = LayerTracer().install()
    try:
        workload = WORKLOADS[workload_name](seed)
        workload.run(workload.warmup_s)
        before = counters(workload)
        workload.start_window()
        if tracer is not None:
            tracer.reset()
        window_start = time.monotonic()
        chunks = []
        calibration = [calibrate()]
        clock = time.perf_counter
        for _ in range(workload.chunks):
            ops = workload.ops()
            started = clock()
            workload.run(workload.chunk_s)
            chunks.append((clock() - started, workload.ops() - ops))
            calibration.append(calibrate())
        after = counters(workload)
        layers = tracer.per_op(after["ops"] - before["ops"]) if tracer else {}
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "window_start": window_start,
        "chunk_s": workload.chunk_s,
        "chunks": chunks,
        "calibration_s": calibration,
        "outputs": {
            "figure": workload.figure(),
            "ops": after["ops"] - before["ops"],
            "events": after["events"] - before["events"],
        },
        "exact": exact_metrics(before, after),
        "layers": layers,
        "unwrapped": tracer.skipped if tracer is not None else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "queue": type(workload.sim.queue).__name__,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.seed, bool(args.trace))))


if __name__ == "__main__":
    main()
