"""Windowed time-series over the metrics registry, driven by sim time.

The PR-4 observability layer records *end-of-run totals*: counters,
gauges, and whole-run histograms.  Nothing in the system could watch a
container *change over time* -- which is exactly what feedback-driven
resource management (ROADMAP) and overload detection need.  This module
adds that streaming substrate:

* **Tumbling windows** -- the pipeline divides sim time into fixed
  ``window_us`` spans.  At each boundary it snapshots the registry:
  every counter's delta over the window becomes a **rate** point, every
  gauge a **level** point, and every per-window latency
  :class:`~repro.obs.loghist.LogHistogram` collapses into
  p50/p95/p99/p999 without ever storing samples.
* **Sliding aggregates** -- per counter key, the mean and max window
  rate over the last ``slow_windows`` windows (a window in which the
  key was idle counts as zero rate), plus an EWMA for a smoothed
  trend.  The close path computes these as whole-registry array
  operations -- one vectorized pass per window, not one Python loop
  per key -- which is what keeps windowed telemetry within a few
  percent of plain collection even with hundreds of live keys.
* **Bounded series** -- every per-key series lives in a
  :class:`SeriesBuffer` with a hard retention cap and an explicit
  ``dropped_points`` counter: old points fall off the front *visibly*,
  never silently, and a million-event run stays in a fixed memory
  envelope (pinned by ``tests/obs/test_timeseries.py``).

**Windows close lazily, on observation timestamps.**  The pipeline
schedules no simulation events: it subscribes to the trace bus and
advances its window clock from the sim-time stamps of records already
flowing.  A record at or past the current boundary first closes every
elapsed window (reading only state produced by *earlier* records --
the boundary-advance handler is subscribed before the registry
collector, so the crossing record itself is not yet folded in), then
falls into the new window.  This keeps the whole pipeline a pure
function of sim-time observations -- controller-ready per the ROADMAP
-- and preserves the trace-off zero-overhead property: with tracing
off, no records flow and the pipeline costs nothing at all.

At each window close the pipeline evaluates its SLO rules
(:mod:`repro.obs.slo`) against the fresh rollup and publishes any
alerts into the trace stream as ``obs.alert`` records.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Optional

import numpy as np

from repro.obs.loghist import DEFAULT_QUANTILES, LogHistogram
from repro.obs.registry import Counter, Gauge, MetricsRegistry

#: C-level ``metric.value`` reader for the vectorized registry gather.
_VALUE_OF = operator.attrgetter("value")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.tracing import TraceBus, TraceRecord

#: Default tumbling-window span, microseconds (100 ms).
DEFAULT_WINDOW_US = 100_000.0

#: Default retention cap per series (points); two hours of 100 ms
#: windows in the worst case, a few KB per key.
DEFAULT_SERIES_CAP = 720

#: Windows folded into the sliding mean/max and the slow burn-rate arm.
DEFAULT_SLOW_WINDOWS = 5

#: EWMA smoothing factor (weight of the newest window's rate).
DEFAULT_EWMA_ALPHA = 0.3

#: Trace categories folded into per-window latency histograms:
#: category -> (value field, container field, subsystem, metric name).
LATENCY_SOURCES = {
    "client.complete": ("latency_us", "client", "client", "latency_us"),
    "disk.request": ("wait_us", "container", "disk", "wait_us"),
}


class SeriesBuffer:
    """Bounded (time, value) ring with an explicit drop counter."""

    __slots__ = ("cap", "times", "values", "dropped_points")

    def __init__(self, cap: int = DEFAULT_SERIES_CAP) -> None:
        if cap < 1:
            raise ValueError(f"series cap must be >= 1, got {cap}")
        self.cap = cap
        self.times: deque = deque()
        self.values: deque = deque()
        #: Points evicted by the retention cap (never silently zero).
        self.dropped_points = 0

    def append(self, time_us: float, value: float) -> None:
        if len(self.times) >= self.cap:
            self.times.popleft()
            self.values.popleft()
            self.dropped_points += 1
        self.times.append(time_us)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self, n: int) -> list:
        """The newest ``n`` values, oldest first."""
        if n >= len(self.values):
            return list(self.values)
        out = list(self.values)
        return out[len(out) - n:]

    def points(self) -> list:
        """All retained (time_us, value) pairs, oldest first."""
        return list(zip(self.times, self.values))


class WindowRollup:
    """Everything the pipeline derived at one window close.

    Keys are registry ``(container, subsystem, name)`` triples.  Only
    keys with activity appear in ``deltas``/``rates``/``ewma``/
    ``sliding`` (an idle 1000-container host costs nothing per window);
    every registry gauge appears in ``gauges``.
    """

    __slots__ = (
        "index", "start_us", "end_us", "span_us", "partial",
        "active_keys", "_deltas", "_counter_src", "_rates", "_pair_sums",
        "gauges", "_ewma", "_ewma_src", "_sliding", "_sliding_src",
        "latency", "alerts",
    )

    def __init__(self, index: int, start_us: float, end_us: float,
                 partial: bool = False) -> None:
        self.index = index
        self.start_us = start_us
        self.end_us = end_us
        self.span_us = end_us - start_us
        self.partial = partial
        #: Number of counter keys with activity in this window.
        self.active_keys = 0
        #: Lazy dict views over the pipeline's close-time arrays (the
        #: hot path hands over immutable array snapshots; the dicts
        #: materialize only when somebody reads them).
        self._deltas: Optional[dict] = None
        self._counter_src: Optional[tuple] = None
        self._rates: Optional[dict] = None  # lazy: deltas scaled to /sec
        self._pair_sums: Optional[dict] = None  # lazy: (sub, name) sums
        self.gauges: dict = {}       # key -> level at window close
        self._ewma: Optional[dict] = None
        self._ewma_src: Optional[tuple] = None
        self._sliding: Optional[dict] = None
        self._sliding_src: Optional[tuple] = None
        self.latency: dict = {}      # key -> LogHistogram summary dict
        self.alerts: list = []       # Alerts emitted at this close

    @property
    def _scale(self) -> float:
        return 1e6 / self.span_us if self.span_us > 0 else 0.0

    @property
    def deltas(self) -> dict:
        """key -> counter delta over the window (active keys only)."""
        cached = self._deltas
        if cached is None:
            src = self._counter_src
            if src is None:
                cached = {}
            else:
                keys, active_idx, deltas_arr, _ = src
                values = deltas_arr.tolist()
                cached = {keys[i]: values[i] for i in active_idx}
            self._deltas = cached
        return cached

    @deltas.setter
    def deltas(self, value: dict) -> None:
        self._deltas = value
        self.active_keys = len(value)

    @property
    def rates(self) -> dict:
        """key -> per-second rate; derived from ``deltas`` on first use
        (the window-close hot path only stores deltas)."""
        cached = self._rates
        if cached is None:
            scale = self._scale
            cached = {key: delta * scale for key, delta in self.deltas.items()}
            self._rates = cached
        return cached

    @property
    def ewma(self) -> dict:
        """key -> smoothed per-second rate, every key ever active."""
        cached = self._ewma
        if cached is None:
            src = self._ewma_src
            if src is None:
                cached = {}
            else:
                keys, ewma_arr, seen = src
                values = ewma_arr.tolist()
                cached = {
                    keys[i]: values[i]
                    for i in np.nonzero(seen)[0].tolist()
                }
            self._ewma = cached
        return cached

    @property
    def sliding(self) -> dict:
        """key -> (mean, max, n) window rate over the newest ``n <=
        slow_windows`` windows, for keys active in *this* window; idle
        windows inside the span count as zero rate."""
        cached = self._sliding
        if cached is None:
            src = self._sliding_src
            if src is None:
                cached = {}
            else:
                keys, active_idx, mean_arr, max_arr, nwin = src
                means = mean_arr.tolist()
                maxes = max_arr.tolist()
                cached = {
                    keys[i]: (means[i], maxes[i], nwin)
                    for i in active_idx
                }
            self._sliding = cached
        return cached

    # -- aggregate helpers (used by SLO rules and experiments) -------------

    def _delta_pairs(self) -> dict:
        """(subsystem, name) -> summed delta, built once per rollup (the
        rule engine asks for several aggregates every close)."""
        cached = self._pair_sums
        if cached is None:
            src = self._counter_src
            if src is None:
                cached = {}
                for key, value in self.deltas.items():
                    pair = (key[1], key[2])
                    cached[pair] = cached.get(pair, 0.0) + value
            else:
                _, _, deltas_arr, pair_slices = src
                cached = {
                    pair: float(deltas_arr[idx].sum())
                    for pair, idx in pair_slices.items()
                }
            self._pair_sums = cached
        return cached

    def delta_sum(self, subsystem: str, name: str) -> float:
        """Sum of counter deltas for (subsystem, name) across containers."""
        return self._delta_pairs().get((subsystem, name), 0.0)

    def pair_items(self, subsystem: str, name: str) -> list:
        """(container, delta) pairs for one (subsystem, name) dimension,
        active keys only -- O(keys in that dimension), not O(all keys)
        (the top-k attribution rule runs this every close)."""
        src = self._counter_src
        if src is None:
            return [
                (key[0], delta)
                for key, delta in self.deltas.items()
                if key[1] == subsystem and key[2] == name
            ]
        keys, _, deltas_arr, pair_slices = src
        idx = pair_slices.get((subsystem, name))
        if idx is None:
            return []
        out = []
        for i, delta in zip(idx.tolist(), deltas_arr[idx].tolist()):
            if delta != 0.0:
                out.append((keys[i][0], delta))
        return out

    def rate_sum(self, subsystem: str, name: str) -> float:
        """Sum of per-second rates for (subsystem, name) across containers."""
        return self.delta_sum(subsystem, name) * self._scale

    def gauge_max(self, subsystem: str, name: str) -> Optional[float]:
        """Max gauge level for (subsystem, name); None if absent."""
        best = None
        for key, value in self.gauges.items():
            if key[1] == subsystem and key[2] == name:
                if best is None or value > best:
                    best = value
        return best

    def to_dict(self) -> dict:
        """JSON-safe dump with ``container/subsystem/name`` string keys."""
        def flat(mapping: dict) -> dict:
            return {
                "/".join(key): value
                for key, value in sorted(mapping.items())
            }

        return {
            "index": self.index,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "span_us": self.span_us,
            "partial": self.partial,
            "deltas": flat(self.deltas),
            "rates": flat(self.rates),
            "gauges": flat(self.gauges),
            "ewma": flat(self.ewma),
            "sliding": flat(self.sliding),
            "latency": flat(self.latency),
            "alerts": [alert.seq for alert in self.alerts],
        }


class TimeSeriesPipeline:
    """Tumbling/sliding windows + SLO evaluation over one registry.

    Construct *before* the registry collector subscribes so the
    boundary-advance handler runs first on every record (see module
    docstring); :class:`repro.obs.observe.Observability` guarantees
    this ordering.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        bus: "TraceBus",
        window_us: float = DEFAULT_WINDOW_US,
        series_cap: int = DEFAULT_SERIES_CAP,
        slow_windows: int = DEFAULT_SLOW_WINDOWS,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        rules: Optional[Iterable] = None,
        latency_quantiles=DEFAULT_QUANTILES,
    ) -> None:
        if window_us <= 0:
            raise ValueError(f"window_us must be > 0, got {window_us}")
        self.registry = registry
        self.bus = bus
        self.window_us = float(window_us)
        self.series_cap = series_cap
        self.slow_windows = slow_windows
        self.ewma_alpha = ewma_alpha
        self.latency_quantiles = tuple(latency_quantiles)
        #: SLO rules, evaluated in order at every window close.
        self.rules: list = []
        #: (subsystem, metric) -> latency objectives (us) any rule
        #: watches; the close loop precomputes ``above_<objective>``
        #: counts into each window summary so histograms need not be
        #: retained past their window.
        self._latency_objectives: dict = {}
        for rule in rules or ():
            self.add_rule(rule)
        #: Callbacks fired per emitted alert (the overload watchdog).
        self.alert_watchers: list[Callable] = []
        #: Callbacks fired per closed window with the fresh rollup.
        self.window_hooks: list[Callable] = []
        #: Rollup ring (same cap discipline as the per-key series).
        self.rollups: deque = deque()
        self.dropped_rollups = 0
        self.alerts: list = []
        self.windows_closed = 0
        self._series: dict = {}
        #: Hot-path views into ``_series`` keyed by the bare registry
        #: triple (no suffix-tuple construction per window close).
        self._rate_series: dict = {}
        self._gauge_series: dict = {}
        #: Registry partition, rebuilt only when the registry grows
        #: (metrics are created, never removed, so the metric count is
        #: a valid version; counters keep their relative order, so the
        #: aligned state below never reshuffles).
        self._partition_version = -1
        self._gauge_items: tuple = ()
        #: Aligned per-counter state: position i in every one of these
        #: is the same counter key.  The close path reads/updates them
        #: as whole arrays instead of per-key dict traffic.
        self._ckeys: list = []
        self._cmetrics: list = []
        self._centries: list = []  # (SeriesBuffer, times, values) or None
        self._prev = np.zeros(0)
        self._ewma_arr = np.zeros(0)
        self._seen = np.zeros(0, dtype=bool)
        #: (subsystem, name) -> index array into the aligned state,
        #: serving the per-dimension aggregate queries vectorized.
        self._pair_slices: dict = {}
        #: Ring of the last ``slow_windows`` per-window rate columns
        #: (dense, aligned), feeding the vectorized sliding mean/max.
        self._colring: deque = deque(maxlen=self.slow_windows)
        self._window_hists: dict = {}
        self._window_start = 0.0
        self._boundary = self.window_us
        self._closing = False
        self._next_alert_seq = 0
        # The boundary-advance handler sees *every* record; the latency
        # folders only their categories.  Subscription order within a
        # category key is registration order, and "*" is registered
        # here before any collector exists.
        bus.subscribe("*", self._on_record)
        for category in LATENCY_SOURCES:
            bus.subscribe(category, self._on_latency)
        #: Live-state samplers: callables ``fn(now) -> iterable of
        #: (container, subsystem, name, value)`` gauge samples, read at
        #: every window close (the kernel registers residency/queue
        #: depth probes here).  Pure reads only.
        self._samplers: list[Callable] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def add_sampler(self, sampler: Callable) -> None:
        """Register a live-state gauge sampler (see ``_samplers``)."""
        self._samplers.append(sampler)

    def add_rule(self, rule) -> None:
        """Register an SLO rule (use this, not ``rules.append``: rules
        watching latency objectives need their thresholds precomputed
        into the window summaries)."""
        self.rules.append(rule)
        spec = getattr(rule, "latency", None)
        if spec:
            subsystem, metric, objective = spec
            bucket = self._latency_objectives.setdefault(
                (subsystem, metric), []
            )
            if float(objective) not in bucket:
                bucket.append(float(objective))

    @property
    def series_keys(self) -> list:
        """All series keys, sorted."""
        return sorted(self._series)

    def series(self, key) -> Optional[SeriesBuffer]:
        """The series buffer at ``key`` (never creates)."""
        return self._series.get(key)

    @property
    def dropped_points(self) -> int:
        """Total points evicted across every series by the retention cap."""
        return sum(s.dropped_points for s in self._series.values())

    @property
    def retained_points(self) -> int:
        """Total points currently held across every series."""
        return sum(len(s) for s in self._series.values())

    # ------------------------------------------------------------------
    # Record intake (hot path: one compare per record when idle)
    # ------------------------------------------------------------------

    def _on_record(self, record: "TraceRecord") -> None:
        if record.time >= self._boundary and not self._closing:
            self._advance(record.time)

    def _on_latency(self, record: "TraceRecord") -> None:
        if self._closing:
            return
        if record.time >= self._boundary:
            self._advance(record.time)
        value_field, owner_field, subsystem, name = LATENCY_SOURCES[
            record.category
        ]
        data = record.data
        if record.category == "disk.request" and data.get("event") != "start":
            return  # wait_us is known once service starts
        value = data.get(value_field)
        if value is None:
            return
        owner = data.get(owner_field)
        key = (
            owner if owner is not None else "<unaccounted>",
            subsystem,
            name,
        )
        hist = self._window_hists.get(key)
        if hist is None:
            hist = LogHistogram()
            self._window_hists[key] = hist
        hist.observe(value)

    # ------------------------------------------------------------------
    # Window machinery
    # ------------------------------------------------------------------

    def _advance(self, now: float) -> None:
        """Close every window whose boundary is at or before ``now``."""
        while now >= self._boundary:
            self._close_window(self._boundary, partial=False)
            self._window_start = self._boundary
            self._boundary += self.window_us

    def finish(self, now: float) -> None:
        """Close out at end of run: elapsed windows, then the partial
        tail window up to ``now`` (skipped when empty).  Idempotent."""
        self._advance(now)
        if now > self._window_start and (
            self._window_hists or self._pending_counter_activity()
        ):
            self._close_window(now, partial=True)
            self._window_start = now

    def _sync_partition(self) -> None:
        """Refresh the aligned counter state after registry growth.

        The registry is append-only, so the previously known counters
        are a stable prefix of the fresh partition; new counters extend
        the aligned lists and the state arrays pad with zeros (a new
        counter's "previous value" is 0, its EWMA unseen).
        """
        metrics = self.registry._metrics
        if len(metrics) == self._partition_version:
            return
        ckeys = self._ckeys
        cmetrics = self._cmetrics
        centries = self._centries
        known = len(ckeys)
        index = 0
        gauges = []
        for key, metric in metrics.items():
            if isinstance(metric, Counter):
                if index >= known:
                    ckeys.append(key)
                    cmetrics.append(metric)
                    centries.append(None)
                index += 1
            elif isinstance(metric, Gauge):
                gauges.append((key, metric))
        self._gauge_items = tuple(gauges)
        pair_lists: dict = {}
        for i, key in enumerate(ckeys):
            pair_lists.setdefault((key[1], key[2]), []).append(i)
        self._pair_slices = {
            pair: np.asarray(indices, dtype=np.intp)
            for pair, indices in pair_lists.items()
        }
        count = len(ckeys)
        if count != self._prev.size:
            grown = np.zeros(count)
            grown[: self._prev.size] = self._prev
            self._prev = grown
            grown = np.zeros(count)
            grown[: self._ewma_arr.size] = self._ewma_arr
            self._ewma_arr = grown
            grown = np.zeros(count, dtype=bool)
            grown[: self._seen.size] = self._seen
            self._seen = grown
            self._colring = deque(
                (
                    np.concatenate([col, np.zeros(count - col.size)])
                    if col.size < count
                    else col
                    for col in self._colring
                ),
                maxlen=self.slow_windows,
            )
        self._partition_version = len(metrics)

    def _pending_counter_activity(self) -> bool:
        self._sync_partition()
        cmetrics = self._cmetrics
        if not cmetrics:
            return False
        values = np.fromiter(
            map(_VALUE_OF, cmetrics), np.float64, count=len(cmetrics)
        )
        return bool((values != self._prev).any())

    def _close_window(self, end: float, partial: bool) -> None:
        self._closing = True
        try:
            start = self._window_start
            span = end - start
            rollup = WindowRollup(
                self.windows_closed, start, end, partial=partial
            )
            for sampler in self._samplers:
                for container, subsystem, name, value in sampler(end):
                    self.registry.gauge(container, subsystem, name).set(value)
            scale = 1e6 / span if span > 0 else 0.0
            alpha = self.ewma_alpha
            decay = 1.0 - alpha
            cap = self.series_cap
            rate_series = self._rate_series
            gauge_series = self._gauge_series
            self._sync_partition()
            cmetrics = self._cmetrics
            count = len(cmetrics)
            if count:
                # Vectorized registry snapshot: deltas, rates, EWMA
                # (active keys blend, idle-but-seen keys decay toward
                # zero), and the sliding mean/max over the rate-column
                # ring -- all as whole-array operations.  Only the
                # per-active-key ring appends stay in Python.
                values = np.fromiter(
                    map(_VALUE_OF, cmetrics), np.float64, count=count
                )
                deltas_arr = values - self._prev
                self._prev = values
                active = deltas_arr != 0.0
                rates_arr = deltas_arr * scale
                seen = self._seen
                ewma_arr = np.where(
                    active,
                    np.where(
                        seen,
                        alpha * rates_arr + decay * self._ewma_arr,
                        rates_arr,
                    ),
                    decay * self._ewma_arr,
                )
                self._ewma_arr = ewma_arr
                seen = seen | active
                self._seen = seen
                colring = self._colring
                colring.append(rates_arr)
                nwin = len(colring)
                col_sum = None
                col_max = None
                for col in colring:
                    if col_sum is None:
                        col_sum = col
                        col_max = col
                    else:
                        col_sum = col_sum + col
                        col_max = np.maximum(col_max, col)
                ckeys = self._ckeys
                rollup._ewma_src = (ckeys, ewma_arr, seen)
                if bool(active.any()):
                    active_idx = np.nonzero(active)[0].tolist()
                    rollup.active_keys = len(active_idx)
                    rollup._counter_src = (
                        ckeys, active_idx, deltas_arr, self._pair_slices,
                    )
                    rollup._sliding_src = (
                        ckeys, active_idx, col_sum / nwin, col_max, nwin,
                    )
                    rates_list = rates_arr.tolist()
                    centries = self._centries
                    for i in active_idx:
                        key = ckeys[i]
                        entry = centries[i]
                        if entry is None:
                            series = self._new_series(
                                key, "rate", rate_series
                            )
                            entry = centries[i] = (
                                series, series.times, series.values,
                            )
                        svalues = entry[2]
                        if len(svalues) >= cap:
                            entry[1].popleft()
                            svalues.popleft()
                            entry[0].dropped_points += 1
                        entry[1].append(end)
                        svalues.append(rates_list[i])
            for key, metric in self._gauge_items:
                value = metric.value
                rollup.gauges[key] = value
                series = gauge_series.get(key)
                if series is None:
                    series = self._new_series(key, "gauge", gauge_series)
                series.append(end, value)
            for key in sorted(self._window_hists):
                hist = self._window_hists[key]
                summary = hist.summary(self.latency_quantiles)
                for objective in self._latency_objectives.get(
                    (key[1], key[2]), ()
                ):
                    summary[f"above_{objective:g}"] = float(
                        hist.count_above(objective)
                    )
                rollup.latency[key] = summary
                self._append_point(key + ("p99",), end, hist.quantile(0.99))
                self._append_point(key + ("p50",), end, hist.quantile(0.5))
            self._window_hists = {}
            self._evaluate_rules(rollup)
            self.windows_closed += 1
            if len(self.rollups) >= self.series_cap:
                self.rollups.popleft()
                self.dropped_rollups += 1
            self.rollups.append(rollup)
            self.bus.publish(
                end,
                "obs.window",
                index=rollup.index,
                partial=partial,
                active_keys=rollup.active_keys,
                alerts=len(rollup.alerts),
            )
            for hook in self.window_hooks:
                hook(rollup)
        finally:
            self._closing = False

    def _new_series(self, key, suffix: str, view: dict) -> SeriesBuffer:
        """Create one buffer visible both under the suffixed public key
        and in the per-kind hot-path view."""
        series = SeriesBuffer(self.series_cap)
        self._series[key + (suffix,)] = series
        view[key] = series
        return series

    def _append_point(self, key, time_us: float, value: float) -> SeriesBuffer:
        series = self._series.get(key)
        if series is None:
            series = SeriesBuffer(self.series_cap)
            self._series[key] = series
        series.append(time_us, value)
        return series

    # ------------------------------------------------------------------
    # SLO evaluation
    # ------------------------------------------------------------------

    def _evaluate_rules(self, rollup: WindowRollup) -> None:
        for rule in self.rules:
            for draft in rule.evaluate(rollup, self):
                alert = draft.stamp(self._next_alert_seq, rollup.end_us)
                self._next_alert_seq += 1
                self.alerts.append(alert)
                rollup.alerts.append(alert)
                self.bus.publish(
                    rollup.end_us,
                    "obs.alert",
                    seq=alert.seq,
                    rule=alert.rule,
                    kind=alert.kind,
                    severity=alert.severity,
                    container=alert.container,
                    value=alert.value,
                    threshold=alert.threshold,
                )
                for watcher in self.alert_watchers:
                    watcher(alert)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """One-line operator digest."""
        return (
            f"windows: {self.windows_closed} closed "
            f"({self.window_us / 1e3:g} ms tumbling), "
            f"{len(self._series)} series, "
            f"{self.retained_points} points retained "
            f"({self.dropped_points} dropped by cap), "
            f"{len(self.alerts)} alert(s)"
        )
