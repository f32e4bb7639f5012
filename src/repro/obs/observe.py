"""The observability facade: registry + spans + profiler on one bus.

:class:`Observability` wires the three facilities of :mod:`repro.obs`
onto a simulation's :class:`~repro.sim.tracing.TraceBus`:

* the :class:`~repro.obs.registry.MetricsRegistry`, fed by a collector
  that folds instrumentation records (CPU slices, scheduler decisions,
  network queueing, application requests, client completions) into
  counters and histograms;
* the :class:`~repro.obs.spans.RequestTracer`, stitching causal
  per-request span trees;
* the :class:`~repro.obs.profile.SimProfiler`, attributing every
  charged microsecond to a (container, subsystem, phase) triple.

Tracing is **off by default**: instrumented code paths check
``TraceBus.active`` (one attribute/predicate test) before building a
record, so an un-observed run pays near-zero overhead -- the
scalability bench guards this.  Attach via ``Host(observe=True)``,
``Simulation(observe=True)``, or the ``REPRO_TRACE=1`` environment
variable, which reaches hosts built deep inside experiment point
runners (the same pattern as the charging sanitizer).  Observing is
strictly observational: collectors schedule no events and mutate no
simulation state, so an observed run's *results* are byte-identical to
an unobserved one.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.obs.export import write_exports
from repro.obs.profile import SimProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import OverloadWatchdog, default_rules
from repro.obs.spans import RequestTracer
from repro.obs.timeseries import TimeSeriesPipeline
from repro.sim.engine import TRACE_ENV, env_flag
from repro.sim.tracing import TraceBus, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation

#: Default export directory for the trace CLI (overridable per-run with
#: ``--trace-out``).
TRACE_OUT_ENV = "REPRO_TRACE_OUT"

#: Environment switch for windowed telemetry: a tumbling-window span in
#: microseconds (empty/"0" leaves windows off).  Reaches hosts built
#: deep inside experiment point runners, same as ``REPRO_TRACE``.
WINDOWS_ENV = "REPRO_OBS_WINDOWS"

#: Observabilities attached in this process, in construction order.
#: The trace CLI drains this after an experiment run to export hosts it
#: never held a reference to (point runners build hosts internally).
_INSTALLED: list = []


def env_enabled() -> bool:
    """True when ``REPRO_TRACE`` asks for observed simulations (read by
    :func:`repro.sim.engine.env_flag`, which rejects values other than
    ``""``, ``"0"`` and ``"1"``)."""
    return env_flag(TRACE_ENV)


def default_outdir() -> str:
    """Export directory: ``REPRO_TRACE_OUT`` or ``.traceout``."""
    return os.environ.get(TRACE_OUT_ENV) or ".traceout"


def env_window_us() -> float:
    """Window span requested via ``REPRO_OBS_WINDOWS``; 0 = off."""
    raw = os.environ.get(WINDOWS_ENV, "")
    if not raw:
        return 0.0
    try:
        return max(0.0, float(raw))
    except ValueError:
        return 0.0


def installed() -> list:
    """Observabilities created so far in this process (oldest first)."""
    return list(_INSTALLED)


def drain_installed() -> list:
    """Return and forget the process's observabilities (CLI reporting)."""
    out = list(_INSTALLED)
    _INSTALLED.clear()
    return out


class RegistryCollector:
    """Folds instrumentation trace records into a metrics registry."""

    def __init__(self, registry: MetricsRegistry, bus: TraceBus) -> None:
        self.registry = registry
        #: Per-core-lane sim-time at which the last observed slice
        #: ended; the gap to the next slice's start is booked as idle
        #: time.  Keyed by lane name so cluster hosts don't collide.
        self._core_last_end: dict[str, float] = {}
        bus.subscribe("cpu.slice", self._on_cpu_slice)
        bus.subscribe("sched", self._on_sched)
        bus.subscribe("net.enqueue", self._on_net_enqueue)
        bus.subscribe("net.demux", self._on_net_demux)
        bus.subscribe("net.synq", self._on_net_synq)
        bus.subscribe("net.tx", self._on_net_tx)
        bus.subscribe("app.request", self._on_app_request)
        bus.subscribe("client.complete", self._on_client_complete)
        bus.subscribe("disk.request", self._on_disk_request)
        bus.subscribe("fs.cache", self._on_fs_cache)
        bus.subscribe("cluster.window", self._on_cluster_window)

    @staticmethod
    def _principal(name: Optional[str]) -> str:
        return name if name is not None else "<unaccounted>"

    def _on_cpu_slice(self, record: TraceRecord) -> None:
        data = record.data
        container = self._principal(data["charge"])
        registry = self.registry
        registry.counter(container, "cpu", "charged_us").inc(data["amount_us"])
        registry.counter(container, "cpu", "slices").inc()
        if data.get("network"):
            registry.counter(container, "cpu", "network_us").inc(
                data["amount_us"]
            )
        # Machine view: busy/idle per core.  cpu.slice is published at
        # slice end, so the slice started ``amount_us`` earlier; the gap
        # since the core's previous slice ended is idle time (the tail
        # after its final slice is unknowable until the run ends and
        # stays unbooked).
        core = data.get("core", 0)
        host = data.get("host")
        # Cluster runs tag slices with their host; each host gets its
        # own core lanes so an 8-host run doesn't fold eight core-0s
        # into one busy counter.  Single-host lanes stay unqualified.
        lane = f"core:{core}" if host is None else f"{host}:core:{core}"
        start = record.time - data["amount_us"]
        idle = start - self._core_last_end.get(lane, 0.0)
        if idle > 0:
            registry.counter(lane, "core", "idle_us").inc(idle)
        self._core_last_end[lane] = record.time
        registry.counter(lane, "core", "busy_us").inc(data["amount_us"])
        registry.counter(lane, "core", "slices").inc()

    def _on_sched(self, record: TraceRecord) -> None:
        data = record.data
        container = self._principal(data.get("container"))
        event = record.category.rsplit(".", 1)[-1]
        if event == "charge":
            self.registry.counter(
                container, "sched", f"charge_us.{data['policy']}"
            ).inc(data["amount_us"])
        elif event == "dispatch":
            self.registry.counter(container, "sched", "dispatches").inc()
            if data.get("switch_us"):
                self.registry.counter(container, "sched", "switches").inc()
                self.registry.counter(container, "sched", "switch_us").inc(
                    data["switch_us"]
                )
        elif event == "preempt":
            self.registry.counter(container, "sched", "preemptions").inc()
        elif event == "steal":
            self.registry.counter(
                f"core:{data['core']}", "core", "steals"
            ).inc()
            self.registry.counter(
                f"core:{data['victim']}", "core", "stolen_from"
            ).inc()

    def _on_net_enqueue(self, record: TraceRecord) -> None:
        data = record.data
        container = self._principal(data.get("container"))
        if data.get("dropped"):
            self.registry.counter(container, "net", "dropped").inc()
        else:
            self.registry.counter(container, "net", "enqueued").inc()

    def _on_net_demux(self, record: TraceRecord) -> None:
        data = record.data
        container = self._principal(data.get("container"))
        name = "early_drops" if data.get("dropped") else "demuxed"
        self.registry.counter(container, "net", name).inc()

    def _on_net_synq(self, record: TraceRecord) -> None:
        data = record.data
        container = self._principal(data.get("container"))
        registry = self.registry
        registry.counter(container, "net", "syns").inc()
        if data.get("dropped"):
            registry.counter(container, "net", "syn_drops").inc()
        # Level at the last SYN arrival; the kernel sampler separately
        # reads the exact backlog at each window close.
        registry.gauge(container, "net", "syn_queue_depth").set(data["depth"])

    def _on_net_tx(self, record: TraceRecord) -> None:
        data = record.data
        container = self._principal(data.get("container"))
        self.registry.counter(container, "net", "tx_bytes").inc(data["bytes"])

    def _on_app_request(self, record: TraceRecord) -> None:
        data = record.data
        if data["event"] != "end":
            return
        container = self._principal(data.get("container"))
        self.registry.counter(container, "app", "requests").inc()

    def _on_client_complete(self, record: TraceRecord) -> None:
        data = record.data
        self.registry.histogram(
            self._principal(data.get("client")), "client", "latency_us"
        ).observe(data["latency_us"])

    def _on_disk_request(self, record: TraceRecord) -> None:
        data = record.data
        if data["event"] != "complete":
            return
        container = self._principal(data.get("container"))
        registry = self.registry
        registry.counter(container, "disk", "requests").inc()
        registry.counter(container, "disk", "service_us").inc(
            data["service_us"]
        )
        registry.counter(container, "disk", "bytes").inc(data["bytes"])
        registry.histogram(container, "disk", "wait_us").observe(
            data["wait_us"]
        )

    def _on_fs_cache(self, record: TraceRecord) -> None:
        data = record.data
        container = self._principal(data.get("container"))
        name = "cache_hits" if data["hit"] else "cache_misses"
        self.registry.counter(container, "fs", name).inc()

    def _on_cluster_window(self, record: TraceRecord) -> None:
        # Cluster-wide per-tenant rollups, one record per global
        # container per window (published by ClusterPrincipals).
        data = record.data
        tenant = self._principal(data.get("tenant"))
        registry = self.registry
        registry.counter(tenant, "cluster", "cpu_us").inc(data["cpu_us"])
        registry.counter(tenant, "cluster", "windows").inc()
        registry.gauge(tenant, "cluster", "share").set(data["share"])
        if data.get("throttled"):
            registry.counter(tenant, "cluster", "windows_throttled").inc()


class Observability:
    """Registry + span tracer + profiler attached to one simulation."""

    def __init__(
        self,
        sim: "Simulation",
        keep_slices: bool = True,
        register: bool = True,
        window_us: "float | None" = None,
        rules: "list | None" = None,
    ) -> None:
        self.sim = sim
        self.registry = MetricsRegistry()
        # Windowed telemetry (PR 9) is a second opt-in on top of
        # tracing: ``window_us`` explicitly, or ``REPRO_OBS_WINDOWS``.
        # The pipeline must subscribe before the collector so that a
        # boundary-crossing record closes elapsed windows *before* the
        # collector folds it into the registry.
        if window_us is None:
            window_us = env_window_us()
        self.window_us = float(window_us) if window_us else 0.0
        self.pipeline: Optional[TimeSeriesPipeline] = None
        self.watchdog: Optional[OverloadWatchdog] = None
        if self.window_us > 0:
            self.pipeline = TimeSeriesPipeline(
                self.registry,
                sim.trace,
                window_us=self.window_us,
                rules=(
                    rules if rules is not None
                    else default_rules(self.window_us)
                ),
            )
            self.watchdog = OverloadWatchdog(self.pipeline)
        self.collector = RegistryCollector(self.registry, sim.trace)
        self.tracer = RequestTracer(sim.trace)
        self.profiler = SimProfiler(sim.trace, keep_slices=keep_slices)
        if register:
            _INSTALLED.append(self)

    # ------------------------------------------------------------------
    # Export / reporting
    # ------------------------------------------------------------------

    def finish(self) -> None:
        """Close out the window pipeline at the simulation's clock."""
        if self.pipeline is not None:
            self.pipeline.finish(self.sim.now)

    def export(self, outdir: "str | None" = None) -> list:
        """Write JSONL + Chrome-trace + flamegraph + metrics exports."""
        self.finish()
        pipeline = self.pipeline
        return write_exports(
            self.profiler,
            self.tracer,
            outdir if outdir is not None else default_outdir(),
            metrics_snapshot=self.registry.snapshot(),
            alerts=pipeline.alerts if pipeline is not None else None,
            rollups=list(pipeline.rollups) if pipeline is not None else None,
        )

    def summary(self) -> str:
        """Operator-style one-screen report."""
        completed = self.tracer.completed_requests()
        lines = [
            f"observability: {self.profiler.total_us / 1e3:.1f} ms CPU "
            f"attributed across {len(self.profiler.totals)} "
            f"(container, subsystem, phase) triple(s); "
            f"{len(self.tracer.spans)} span(s), "
            f"{len(completed)} completed request(s); "
            f"{len(self.registry)} metric(s)",
        ]
        if self.pipeline is not None:
            lines.append(self.pipeline.summary())
        if self.watchdog is not None:
            lines.append(f"health: worst {self.watchdog.worst_state()}")
        lines.extend(["", self.profiler.render()])
        return "\n".join(lines)
