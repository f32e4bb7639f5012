"""Container-level observability: metrics, request spans, profiling.

Everything in this package is a *passive observer* of the simulation's
:class:`~repro.sim.tracing.TraceBus` -- attaching it changes no
results, and leaving it off costs one predicate test per instrumented
site.  All timestamps are simulated microseconds, making every export a
pure function of (tree, params, seed); the DET lint hard-forbids wall
clocks in this package (the rule is unwaivable here).

See ``docs/OBSERVABILITY.md`` for the span model and export formats.

The public names below are re-exported lazily (PEP 562, the same
``_LAZY`` table as :mod:`repro.kernel`): importing this package loads no
submodule, so a run that leaves observability off never pays for it --
in particular not for numpy, which :mod:`repro.obs.timeseries` imports.
``from repro.obs import Observability`` loads :mod:`repro.obs.observe`
on first use; ``from repro.obs import observe`` is a plain submodule
import.
"""

__all__ = [
    "Alert",
    "BurnRateRule",
    "Counter",
    "DEFAULT_BUCKETS_US",
    "Gauge",
    "Histogram",
    "LogHistogram",
    "MetricsRegistry",
    "Observability",
    "OverloadWatchdog",
    "ProfileSlice",
    "RegistryCollector",
    "RequestTracer",
    "SPAN_CATEGORIES",
    "SeriesBuffer",
    "SimProfiler",
    "Span",
    "TRACE_ENV",
    "TRACE_OUT_ENV",
    "ThresholdRule",
    "TimeSeriesPipeline",
    "TopKRule",
    "UNACCOUNTED",
    "WINDOWS_ENV",
    "WindowRollup",
    "chrome_trace",
    "dashboard_lines",
    "default_outdir",
    "default_rules",
    "drain_installed",
    "env_enabled",
    "env_window_us",
    "flamegraph_lines",
    "installed",
    "jsonl_lines",
    "monitor_jsonl_lines",
    "render_dashboard",
    "validate_chrome_trace",
    "write_exports",
    "write_monitor_exports",
]

_LAZY = {
    "chrome_trace": ("repro.obs.export", "chrome_trace"),
    "flamegraph_lines": ("repro.obs.export", "flamegraph_lines"),
    "jsonl_lines": ("repro.obs.export", "jsonl_lines"),
    "validate_chrome_trace": ("repro.obs.export", "validate_chrome_trace"),
    "write_exports": ("repro.obs.export", "write_exports"),
    "LogHistogram": ("repro.obs.loghist", "LogHistogram"),
    "dashboard_lines": ("repro.obs.monitor", "dashboard_lines"),
    "monitor_jsonl_lines": ("repro.obs.monitor", "monitor_jsonl_lines"),
    "render_dashboard": ("repro.obs.monitor", "render_dashboard"),
    "write_monitor_exports": ("repro.obs.monitor", "write_monitor_exports"),
    "Observability": ("repro.obs.observe", "Observability"),
    "RegistryCollector": ("repro.obs.observe", "RegistryCollector"),
    "TRACE_OUT_ENV": ("repro.obs.observe", "TRACE_OUT_ENV"),
    "WINDOWS_ENV": ("repro.obs.observe", "WINDOWS_ENV"),
    "default_outdir": ("repro.obs.observe", "default_outdir"),
    "drain_installed": ("repro.obs.observe", "drain_installed"),
    "env_enabled": ("repro.obs.observe", "env_enabled"),
    "env_window_us": ("repro.obs.observe", "env_window_us"),
    "installed": ("repro.obs.observe", "installed"),
    "TRACE_ENV": ("repro.sim.engine", "TRACE_ENV"),
    "ProfileSlice": ("repro.obs.profile", "ProfileSlice"),
    "SimProfiler": ("repro.obs.profile", "SimProfiler"),
    "UNACCOUNTED": ("repro.obs.profile", "UNACCOUNTED"),
    "Counter": ("repro.obs.registry", "Counter"),
    "DEFAULT_BUCKETS_US": ("repro.obs.registry", "DEFAULT_BUCKETS_US"),
    "Gauge": ("repro.obs.registry", "Gauge"),
    "Histogram": ("repro.obs.registry", "Histogram"),
    "MetricsRegistry": ("repro.obs.registry", "MetricsRegistry"),
    "Alert": ("repro.obs.slo", "Alert"),
    "BurnRateRule": ("repro.obs.slo", "BurnRateRule"),
    "OverloadWatchdog": ("repro.obs.slo", "OverloadWatchdog"),
    "ThresholdRule": ("repro.obs.slo", "ThresholdRule"),
    "TopKRule": ("repro.obs.slo", "TopKRule"),
    "default_rules": ("repro.obs.slo", "default_rules"),
    "RequestTracer": ("repro.obs.spans", "RequestTracer"),
    "SPAN_CATEGORIES": ("repro.obs.spans", "SPAN_CATEGORIES"),
    "Span": ("repro.obs.spans", "Span"),
    "SeriesBuffer": ("repro.obs.timeseries", "SeriesBuffer"),
    "TimeSeriesPipeline": ("repro.obs.timeseries", "TimeSeriesPipeline"),
    "WindowRollup": ("repro.obs.timeseries", "WindowRollup"),
}


def __getattr__(name: str):
    """Resolve a public name by importing its submodule on first use."""
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value
