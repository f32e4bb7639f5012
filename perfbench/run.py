"""The repo benchmark: host cost of simulating the paper's workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload synflood --seed 1 --seconds 20 --trace 0

Each run boots the workload in a fresh interpreter (``child.py``), one
after another, until ``--seconds`` have passed (at least ``MIN_RUNS``
untraced runs).  With ``--trace 0`` it reports the end-to-end metrics
(the lower quartile over the timed chunks, or the median over runs); with
``--trace 1`` it pairs an untraced run with a traced one and reports the
per-layer split, the exact per-layer counts and ``trace.overhead``.

Host speed on a shared machine drifts by tens of percent over minutes,
so every time metric is scaled to a reference host speed: each run times
a fixed integer loop (``child.calibrate``) between its chunks, and its
wall times are multiplied by ``REFERENCE_CALIBRATION_S`` over that
loop's median time.  The summary line keeps the unscaled wall time and
the measured speed factor.

Every run's simulated outputs are checked: all runs of one invocation
must agree, a traced run must reproduce its untraced twin exactly, and
for a seed recorded in ``expected.json`` the outputs must equal the
recording.  A run that raises or disagrees counts as failed.  The last
line of standard output is the JSON result; the line before it is a
summary with quartiles, sample counts and the host stamp.

``--record`` runs the workload once and stores its outputs for the seed
in ``expected.json`` (for a deliberate model change).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

WORKLOADS = ("synflood", "cluster", "disk", "spinner")

#: Untraced runs per invocation, at least: set-up time is a per-run
#: metric, so its median needs several runs.
MIN_RUNS = 3

#: Every invocation must end within this many seconds.
DEADLINE_S = 170.0

#: Longest a single child may take (a traced synflood run is the slowest).
CHILD_TIMEOUT_S = 120.0

#: Median time of ``child.calibrate`` on the host that recorded the
#: benchmark (2-CPU container, CPython 3.11): the speed that reported
#: times are scaled to.
REFERENCE_CALIBRATION_S = 0.0133

#: Unit of each end-to-end metric and the statistic reported over its
#: samples.  The two rates report the lower quartile of the timed chunks:
#: other tenants of a shared host only ever add time, mostly to
#: memory-bound work that the calibration loop under-reports, and the
#: lower quartile follows the uncontended cost while still pooling a
#: quarter of the samples.  Per-run metrics report the median over runs.
END_TO_END = {
    "wall_s_per_sim_s": ("s/s", "q1"),
    "wall_us_per_op": ("us", "q1"),
    "setup_s": ("s", "median"),
    "peak_rss_mb": ("MB", "median"),
}


class RunFailed(Exception):
    """A child exited non-zero or printed no result."""


def child_env() -> dict:
    """The environment of a child: no ``REPRO_*`` switch leaks in (trace,
    sanitizer, windows, event-queue choice), and string hashing is pinned
    so set iteration order cannot differ between runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, trace: bool) -> dict:
    """One fresh-interpreter run; adds ``setup_s`` to its record."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace))],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(proc.stderr.strip()[-2000:] or "no output")
    record = json.loads(lines[-1])
    record["setup_s"] = record["window_start"] - spawned
    return record


def load_expected() -> dict:
    if not EXPECTED.exists():
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def output_problems(outputs: dict, reference: "dict | None") -> list:
    """Why ``outputs`` are wrong: not equal to ``reference`` (when there
    is one), or not a plausible simulation result."""
    problems = []
    if reference is not None and outputs != reference:
        problems.append(f"outputs {outputs} differ from {reference}")
    if outputs["ops"] < 1 or outputs["events"] < outputs["ops"]:
        problems.append(f"implausible op/event counts in {outputs}")
    figure = outputs["figure"]
    if not (isinstance(figure, (int, float)) and math.isfinite(figure)
            and figure > 0):
        problems.append(f"figure statistic {figure!r} is not a positive number")
    return problems


def summarize(values: list) -> dict:
    """Quartiles and sample count; a single sample is its own quartiles."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def speed_factor(record: dict) -> float:
    """Reference-speed seconds per wall second during this run."""
    return REFERENCE_CALIBRATION_S / statistics.median(record["calibration_s"])


def end_to_end_samples(records: list) -> dict:
    """Samples per end-to-end metric: timed chunks for the rates, runs
    for set-up and memory; times scaled to the reference speed.  Also
    the unscaled rate and the speed factors, for the summary."""
    samples = {name: [] for name in END_TO_END}
    samples["unscaled_wall_s_per_sim_s"] = []
    samples["speed_factor"] = []
    for record in records:
        factor = speed_factor(record)
        chunk_s = record["chunk_s"]
        for wall_s, ops in record["chunks"]:
            samples["wall_s_per_sim_s"].append(wall_s * factor / chunk_s)
            samples["unscaled_wall_s_per_sim_s"].append(wall_s / chunk_s)
            if ops:
                samples["wall_us_per_op"].append(wall_s * factor * 1e6 / ops)
        samples["setup_s"].append(record["setup_s"] * factor)
        samples["peak_rss_mb"].append(record["peak_rss_mb"])
        samples["speed_factor"].append(factor)
    return samples


def window_wall(record: dict) -> float:
    """The timed window's wall seconds, scaled to the reference speed."""
    return sum(wall_s for wall_s, _ops in record["chunks"]) * speed_factor(record)


def stamp() -> dict:
    """Where and on what the numbers were measured."""
    try:
        # The ceiling keeps git from reporting an enclosing repository's
        # commit when the checkout itself is not a git repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "platform": platform.platform(),
    }


class Bench:
    """One invocation: runs children, checks them, collects metrics."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.reference = load_expected().get(workload, {}).get(str(seed))
        self.recorded = self.reference is not None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.queue = None
        self.unwrapped: list = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def attempt(self, trace: bool, twin: "dict | None" = None):
        """Run one child; returns its record, or None if it crashed.

        A run whose outputs are wrong still returns its record (its
        timings stand) but counts as failed.  The first good record
        becomes the reference for a seed with no recording, so every
        later run must reproduce it.
        """
        self.attempted += 1
        try:
            record = run_child(self.workload, self.seed, trace)
        except (RunFailed, subprocess.TimeoutExpired, ValueError) as exc:
            self.failed += 1
            self.problems.append(f"run {self.attempted}: {exc}")
            return None
        self.queue = record["queue"]
        self.unwrapped = record["unwrapped"]
        reference = twin["outputs"] if twin is not None else self.reference
        problems = output_problems(record["outputs"], reference)
        if problems:
            self.failed += 1
            self.problems.extend(f"run {self.attempted}: {p}" for p in problems)
        elif self.reference is None:
            self.reference = record["outputs"]
        return record

    def has_time_for(self, runs: list, minimum: int) -> bool:
        """Whether to start another run (or pair of runs)."""
        if len(runs) < minimum and self.attempted < 2 * minimum:
            return True
        if self.elapsed() >= self.seconds or not runs:
            return False
        per_run = self.elapsed() / max(1, self.attempted)
        return self.elapsed() + 2 * per_run < DEADLINE_S

    def untraced(self) -> tuple:
        runs: list = []
        while self.has_time_for(runs, MIN_RUNS):
            record = self.attempt(trace=False)
            if record is not None:
                runs.append(record)
        samples = end_to_end_samples(runs)
        metrics = {
            name: {"value": summarize(samples[name])[statistic], "unit": unit}
            for name, (unit, statistic) in END_TO_END.items() if samples[name]
        }
        return runs, samples, metrics

    def traced(self) -> tuple:
        pairs: list = []
        while self.has_time_for(pairs, 1):
            plain = self.attempt(trace=False)
            if plain is None:
                continue
            traced = self.attempt(trace=True, twin=plain)
            if traced is not None:
                pairs.append((plain, traced))
        samples: dict = {}
        for plain, traced in pairs:
            values = dict(traced["layers"])
            values.update(traced["exact"])
            values["trace.overhead"] = window_wall(traced) / window_wall(plain)
            for name, value in values.items():
                samples.setdefault(name, []).append(value)
        metrics = {
            name: {"value": summarize(values)["median"], "unit": per_layer_unit(name)}
            for name, values in samples.items()
        }
        return pairs, samples, metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("self_us_per_op"):
        return "us"
    if name.endswith("_per_op"):
        return "count"
    return "ratio"


def record_outputs(workload: str, seed: int) -> dict:
    """Run once and store the outputs for ``seed`` in expected.json."""
    outputs = run_child(workload, seed, trace=False)["outputs"]
    expected = load_expected()
    expected.setdefault(workload, {})[str(seed)] = outputs
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        print(json.dumps(record_outputs(args.workload, args.seed)))
        return 0

    bench = Bench(args.workload, args.seed, args.seconds)
    runs, samples, metrics = bench.traced() if args.trace else bench.untraced()
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not runs:
        print("no run completed", file=sys.stderr)
        return 1
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "checked_against": "expected.json" if bench.recorded else "first run",
        "outputs": bench.reference,
        "event_queue": bench.queue,
        "unwrapped_entry_points": bench.unwrapped,
        "stamp": stamp(),
        "metrics": {name: summarize(values) for name, values in samples.items()},
    }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
