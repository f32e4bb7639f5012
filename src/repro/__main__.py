"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # available experiments
    python -m repro table1               # one experiment
    python -m repro fig12 --full         # slower, larger windows
    python -m repro all --jobs 4         # everything, 4 worker processes
    python -m repro fig11 --no-cache     # recompute even cached points
    python -m repro check                # the static gate over src/repro
                                         # (determinism / charging /
                                         # SMP protocol / units)
    python -m repro check --rules        # the rule catalogue
    python -m repro check --format json
    python -m repro sanitize fig11       # run fig11 under the
                                         # charging-conservation sanitizer
    python -m repro trace fig11 --smoke  # trace one tiny fig11 point and
                                         # export JSONL/Chrome-trace/flame
    python -m repro report               # summarize a trace export dir
    python -m repro monitor fig_overload_onset
                                         # re-run with windowed telemetry
                                         # and render the SLO dashboard
    python -m repro bench-obs            # observability overhead benchmark

Every figure harness expands into a grid of independent simulation
points; ``--jobs N`` fans the grid out to N worker processes (output is
byte-identical to a serial run) and finished points are cached by
content under ``.sweepcache/`` so warm re-runs skip them (``--no-cache``
bypasses the cache).
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _run_table1(fast: bool, jobs: int, cache: bool):
    # Table 1 wall-clock micro-benchmarks its own Python implementation,
    # so its numbers are machine-bound: never cached, never fanned out.
    from repro.experiments import table1_primitives

    return table1_primitives.run()


def _run_baseline(fast: bool, jobs: int, cache: bool):
    from repro.experiments import baseline

    return baseline.run(fast=fast, jobs=jobs, cache=cache)


def _run_fig11(fast: bool, jobs: int, cache: bool):
    from repro.experiments import fig11_priority

    return fig11_priority.run(fast=fast, jobs=jobs, cache=cache)


def _run_fig12(fast: bool, jobs: int, cache: bool):
    from repro.experiments import fig12_cgi

    return fig12_cgi.run(fast=fast, jobs=jobs, cache=cache)


def _run_fig14(fast: bool, jobs: int, cache: bool):
    from repro.experiments import fig14_synflood

    return fig14_synflood.run(fast=fast, jobs=jobs, cache=cache)


def _run_fig_disk(fast: bool, jobs: int, cache: bool):
    from repro.experiments import fig_disk_isolation

    return fig_disk_isolation.run(fast=fast, jobs=jobs, cache=cache)


def _run_virtual(fast: bool, jobs: int, cache: bool):
    from repro.experiments import virtual_servers

    return virtual_servers.run(fast=fast, jobs=jobs, cache=cache)


def _run_ablations(fast: bool, jobs: int, cache: bool):
    from repro.experiments import ablations

    return ablations.run(fast=fast, jobs=jobs, cache=cache)


def _run_fig_onset(fast: bool, jobs: int, cache: bool):
    from repro.experiments import fig_overload_onset

    return fig_overload_onset.run(fast=fast, jobs=jobs, cache=cache)


def _run_fig_cluster(fast: bool, jobs: int, cache: bool):
    from repro.experiments import fig_cluster_isolation

    return [
        fig_cluster_isolation.run(fast=fast, jobs=jobs, cache=cache),
        fig_cluster_isolation.run_synflood(fast=fast, jobs=jobs, cache=cache),
    ]


def _render_any(result) -> str:
    """Text rendering for any experiment result shape."""
    if hasattr(result, "render"):
        return result.render()
    if isinstance(result, dict):
        return "\n\n".join(
            _render_any(value) for value in result.values()
        )
    if isinstance(result, (list, tuple)):
        return "\n".join(_render_any(item) for item in result)
    return str(result)


def _rerun(args, command: str, env: dict, body) -> "int | None":
    """Re-run ``args.target`` in this process with ``env`` set.

    Validates the target against :data:`EXPERIMENTS`, sets ``env`` in
    ``os.environ``, calls ``body(description, run)`` and restores the
    previous environment.  ``run()`` executes the experiment serially
    and bypassing the cache on purpose: every point must actually
    execute in *this* process so the kernels and hosts it builds
    register their sanitizers or observabilities where the caller can
    drain them.  Returns 2 for an unknown target, else ``body``'s
    return value (None to go on).
    """
    target = args.target
    if target not in EXPERIMENTS:
        print(
            f"{command}: pick an experiment, one of: "
            + ", ".join(EXPERIMENTS),
            file=sys.stderr,
        )
        return 2
    description, runner = EXPERIMENTS[target]
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    try:
        return body(
            description,
            lambda: runner(fast=not args.full, jobs=1, cache=False),
        )
    finally:
        for key, previous in saved.items():
            if previous is None:
                del os.environ[key]
            else:
                os.environ[key] = previous


def _run_sanitize(args) -> int:
    """Run one experiment with every kernel under the conservation
    sanitizer; report per-host summaries and any violations."""
    from repro.analysis import sanitizer

    def body(description, run):
        print(f"== sanitized run: {description} ==")
        print(_render_any(run()))

    rc = _rerun(args, "sanitize", {sanitizer.SANITIZE_ENV: "1"}, body)
    if rc is not None:
        return rc
    total = 0
    checkers = sanitizer.drain_installed()
    for checker in checkers:
        violations = checker.finish()
        total += len(violations)
        if violations:
            print(checker.summary(), file=sys.stderr)
            for violation in violations:
                print("  " + violation.render(), file=sys.stderr)
    slices = sum(c.slices_checked for c in checkers)
    print(
        f"sanitize: {len(checkers)} host(s), {slices} slices checked, "
        f"{total} conservation violation(s)"
    )
    return 0 if total == 0 else 1


def _run_trace(args) -> int:
    """Run one experiment with observability attached to every host it
    builds; export the traces and report a summary."""
    import json

    from repro.obs import observe, validate_chrome_trace

    outdir = args.trace_out or observe.default_outdir()

    def body(description, run):
        if not args.smoke:
            print(f"== traced run: {description} ==")
            print(_render_any(run()))
        elif args.target == "fig11":
            from repro.experiments import fig11_priority

            print("== traced smoke point: fig11 (select, n_low=5) ==")
            value = fig11_priority.run_traced()
            print(f"mean Thigh: {value:.3f} ms")
        elif args.target == "fig_disk_isolation":
            from repro.experiments import fig_disk_isolation

            print(
                "== traced smoke point: fig_disk_isolation "
                "(wfq, n_antag=4) =="
            )
            value = fig_disk_isolation.run_traced()
            print(f"mean premium latency: {value:.3f} ms")
        else:
            print(
                "trace: --smoke supports only fig11 and "
                "fig_disk_isolation",
                file=sys.stderr,
            )
            return 2
        return None

    rc = _rerun(args, "trace", {observe.TRACE_ENV: "1"}, body)
    if rc is not None:
        return rc
    observabilities = observe.drain_installed()
    if not observabilities:
        print("trace: no hosts were observed", file=sys.stderr)
        return 1
    problems = 0
    for index, obs in enumerate(observabilities):
        # One subdirectory per observed host, in construction order
        # (a single-host run exports directly into outdir).
        hostdir = (
            outdir if len(observabilities) == 1
            else os.path.join(outdir, f"host-{index:03d}")
        )
        paths = obs.export(hostdir)
        print(f"\n-- host {index}: {obs.summary()}")
        for path in paths:
            print(f"   [wrote {path}]")
        with open(os.path.join(hostdir, "trace-events.json")) as handle:
            document = json.load(handle)
        for problem in validate_chrome_trace(document):
            problems += 1
            print(f"trace: schema problem: {problem}", file=sys.stderr)
    print(
        f"\ntrace: {len(observabilities)} host(s) exported to {outdir}, "
        f"{problems} schema problem(s)"
    )
    return 0 if problems == 0 else 1


def _run_monitor(args) -> int:
    """Re-run one experiment with windowed telemetry on every host it
    builds; render each host's dashboard and write the byte-stable
    monitor exports (``dashboard.txt`` + ``monitor.jsonl``)."""
    from repro.obs import observe
    from repro.obs.monitor import render_dashboard, write_monitor_exports

    outdir = args.trace_out or observe.default_outdir()

    def body(description, run):
        print(f"== monitored run: {description} ==")
        print(_render_any(run()))

    env = {observe.TRACE_ENV: "1", observe.WINDOWS_ENV: "100000"}
    rc = _rerun(args, "monitor", env, body)
    if rc is not None:
        return rc
    monitored = [
        obs for obs in observe.drain_installed() if obs.pipeline is not None
    ]
    if not monitored:
        print("monitor: no hosts carried a window pipeline", file=sys.stderr)
        return 1
    for index, obs in enumerate(monitored):
        # One subdirectory per observed host, in construction order
        # (a single-host run exports directly into outdir).
        hostdir = (
            outdir if len(monitored) == 1
            else os.path.join(outdir, f"host-{index:03d}")
        )
        print(f"\n-- host {index} --")
        print(render_dashboard(obs))
        for path in write_monitor_exports(obs, hostdir):
            print(f"   [wrote {path}]")
    print(f"\nmonitor: {len(monitored)} host(s) exported to {outdir}")
    return 0


def _run_report(args) -> int:
    """Summarize a previously written trace export directory."""
    import json

    from repro.obs import observe

    outdir = args.trace_out or observe.default_outdir()
    jsonl_path = os.path.join(outdir, "trace.jsonl")
    if not os.path.exists(jsonl_path):
        print(
            f"report: no trace.jsonl under {outdir!r} "
            "(run `python -m repro trace <experiment>` first, or pass "
            "--trace-out / set REPRO_TRACE_OUT)",
            file=sys.stderr,
        )
        return 2
    slices = 0
    slice_us = 0.0
    by_triple: dict = {}
    spans = 0
    requests_done = 0
    with open(jsonl_path) as handle:
        for line in handle:
            record = json.loads(line)
            if record["type"] == "slice":
                slices += 1
                slice_us += record["duration_us"]
                key = (
                    record["container"], record["subsystem"], record["phase"]
                )
                by_triple[key] = by_triple.get(key, 0.0) + record["duration_us"]
            elif record["type"] == "span":
                spans += 1
                if record["name"] == "request" and record["end_us"] is not None:
                    requests_done += 1
    print(
        f"report: {outdir}: {slices} slice(s) "
        f"({slice_us / 1e3:.1f} ms attributed), {spans} span(s), "
        f"{requests_done} completed request(s)"
    )
    print(f"\n{'container':28s}{'subsystem':12s}{'phase':18s}{'ms':>10s}")
    for (container, subsystem, phase), amount in sorted(
        by_triple.items(), key=lambda kv: (-kv[1], kv[0])
    )[:20]:
        print(
            f"{container:28s}{subsystem:12s}{phase:18s}{amount / 1e3:>10.2f}"
        )
    metrics_path = os.path.join(outdir, "metrics.json")
    if os.path.exists(metrics_path):
        with open(metrics_path) as handle:
            metrics = json.load(handle)
        print(f"\n{len(metrics)} metric(s); non-zero counters:")
        for entry in metrics:
            if entry["kind"] == "counter" and entry["value"]:
                print(
                    f"  {entry['container']:28s}{entry['subsystem']:8s}"
                    f"{entry['name']:24s}{entry['value']:>14g}"
                )
    return 0


EXPERIMENTS = {
    "table1": ("Table 1: container primitive costs", _run_table1),
    "baseline": ("Section 5.3/5.4: baseline throughput", _run_baseline),
    "fig11": ("Figure 11: prioritised clients", _run_fig11),
    "fig12": ("Figures 12+13: CGI sandboxing", _run_fig12),
    "fig14": ("Figure 14: SYN-flood resilience", _run_fig14),
    "fig_disk_isolation": (
        "Disk-bandwidth isolation (FIFO vs. weighted-fair)", _run_fig_disk
    ),
    "virtual": ("Section 5.8: virtual servers", _run_virtual),
    "ablations": ("Design-choice ablations", _run_ablations),
    "fig_overload_onset": (
        "Overload onset: burn-rate alerts vs throughput collapse",
        _run_fig_onset,
    ),
    "fig_cluster_isolation": (
        "Cluster tenant isolation: global containers vs unbound",
        _run_fig_cluster,
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the OSDI'99 resource-containers evaluation.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            *EXPERIMENTS, "all", "list", "bench-obs",
            "check", "sanitize", "trace", "report", "monitor",
        ],
        help="which experiment to run ('check' runs the static gate -- "
        "determinism, charging, shard-protocol and units rules -- over "
        "the repro source tree; 'sanitize <experiment>' re-runs an "
        "experiment with the charging-conservation sanitizer enabled; "
        "'trace <experiment>' re-runs one with observability attached "
        "and exports JSONL/Chrome-trace/flamegraph files; 'report' "
        "summarizes a trace export directory; 'monitor <experiment>' "
        "re-runs one with windowed telemetry and SLO rules attached, "
        "renders the dashboard, and exports dashboard.txt + "
        "monitor.jsonl; 'bench-obs' benchmarks observability overhead "
        "and writes BENCH_obs.json)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="experiment to check (only with 'sanitize' / 'trace' / "
        "'monitor')",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="with 'trace'/'report': export directory (default: "
        "$REPRO_TRACE_OUT or .traceout)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="with 'trace fig11' / 'trace fig_disk_isolation': trace one "
        "tiny point instead of the whole figure grid (the determinism "
        "verify gates use this)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="with 'check': rewrite the reasoned baseline of "
        "grandfathered violations from the current tree",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="with 'check': print the rule catalogue and exit",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="fmt",
        help="with 'check': findings as human text (default) "
        "or machine-readable JSON",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the larger (slower) measurement windows",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of text tables",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep grids (default 1: serial; "
        "parallel output is byte-identical to serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed result cache (.sweepcache/)",
    )
    args = parser.parse_args(argv)
    cache = not args.no_cache

    if args.experiment == "list":
        for key, (description, _fn) in EXPERIMENTS.items():
            print(f"{key:10s} {description}")
        print(f"{'bench-obs':10s} Observability overhead (off/observe/windows)")
        return 0

    if args.experiment == "check":
        from repro.analysis.analyze import run_check

        return run_check(
            fmt=args.fmt,
            update_baseline=args.update_baseline,
            show_rules=args.rules,
        )

    if args.experiment == "sanitize":
        return _run_sanitize(args)

    if args.experiment == "trace":
        return _run_trace(args)

    if args.experiment == "report":
        return _run_report(args)

    if args.experiment == "monitor":
        return _run_monitor(args)

    if args.experiment == "bench-obs":
        from repro.experiments import bench_obs

        result = bench_obs.run()
        path = bench_obs.write_json(result)
        if args.json:
            import json

            print(json.dumps(result, indent=2))
        else:
            print(bench_obs.render(result))
        print(f"[wrote {path}]", file=sys.stderr)
        return 0

    selected = (
        list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    for key in selected:
        description, runner = EXPERIMENTS[key]
        if not args.json:
            print(f"== {description} ==")
        # perf_counter, not time.time(): this is host-side progress
        # reporting (never simulation state), but time.time() jumps
        # under NTP/DST adjustments while perf_counter is monotonic.
        started = time.perf_counter()  # det: allow[DET101]
        result = runner(fast=not args.full, jobs=args.jobs, cache=cache)
        if args.json:
            from repro.experiments.export import result_to_json

            print(result_to_json({key: result}))
        else:
            print(_render_any(result))
            print(f"[{key}: {time.perf_counter() - started:.1f}s wall]\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `python -m repro all | head`
        sys.exit(0)
