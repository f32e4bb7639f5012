"""Windowed time-series pipeline: window machinery, aggregates, bounds.

The pipeline is driven purely by trace-record timestamps, so every test
here drives it the same way production does: publish records on a
:class:`TraceBus` (or call the internal ``_advance`` with explicit sim
times, which is what those records do).
"""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import (
    DEFAULT_SERIES_CAP,
    SeriesBuffer,
    TimeSeriesPipeline,
)
from repro.sim.tracing import TraceBus

WINDOW = 100.0


def _pipeline(**kwargs):
    bus = TraceBus()
    registry = MetricsRegistry()
    pipeline = TimeSeriesPipeline(
        registry, bus, window_us=WINDOW, **kwargs
    )
    return bus, registry, pipeline


# ---------------------------------------------------------------------------
# SeriesBuffer
# ---------------------------------------------------------------------------


def test_series_buffer_cap_and_drop_counter():
    series = SeriesBuffer(cap=3)
    for i in range(5):
        series.append(float(i), float(i * 10))
    assert len(series) == 3
    assert series.dropped_points == 2
    assert series.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
    assert series.last(2) == [30.0, 40.0]


def test_series_buffer_rejects_zero_cap():
    with pytest.raises(ValueError):
        SeriesBuffer(cap=0)


# ---------------------------------------------------------------------------
# Window machinery
# ---------------------------------------------------------------------------


def test_windows_close_lazily_on_record_timestamps():
    bus, registry, pipeline = _pipeline()
    counter = registry.counter("A", "cpu", "charged_us")
    counter.inc(10)
    assert pipeline.windows_closed == 0
    # A record inside the first window closes nothing.
    bus.publish(50.0, "cpu.slice", amount_us=1.0)
    assert pipeline.windows_closed == 0
    # A record past the boundary closes the elapsed window first.
    bus.publish(150.0, "cpu.slice", amount_us=1.0)
    assert pipeline.windows_closed == 1
    rollup = pipeline.rollups[-1]
    assert (rollup.start_us, rollup.end_us) == (0.0, 100.0)
    assert not rollup.partial


def test_one_late_record_closes_every_elapsed_window():
    bus, registry, pipeline = _pipeline()
    registry.counter("A", "cpu", "charged_us").inc(1)
    bus.publish(550.0, "cpu.slice", amount_us=1.0)
    assert pipeline.windows_closed == 5
    # Only the first window saw the delta; the rest were idle.
    assert pipeline.rollups[0].deltas == {("A", "cpu", "charged_us"): 1.0}
    for rollup in list(pipeline.rollups)[1:]:
        assert rollup.deltas == {}
        assert rollup.active_keys == 0


def test_pipeline_rejects_nonpositive_window():
    bus = TraceBus()
    with pytest.raises(ValueError):
        TimeSeriesPipeline(MetricsRegistry(), bus, window_us=0.0)


def test_finish_closes_partial_tail_and_is_idempotent():
    bus, registry, pipeline = _pipeline()
    counter = registry.counter("A", "cpu", "charged_us")
    counter.inc(10)
    pipeline._advance(101.0)  # w1 takes the first delta
    counter.inc(5)            # activity after the last boundary
    pipeline.finish(150.0)
    assert pipeline.windows_closed == 2
    tail = pipeline.rollups[-1]
    assert tail.partial
    assert tail.span_us == 50.0
    assert tail.deltas == {("A", "cpu", "charged_us"): 5.0}
    # 5 over 50us = 1e5/s: partial spans scale rates by true span.
    assert tail.rates[("A", "cpu", "charged_us")] == pytest.approx(1e5)
    pipeline.finish(150.0)
    assert pipeline.windows_closed == 2  # idempotent: no empty re-close


def test_finish_skips_empty_tail():
    bus, registry, pipeline = _pipeline()
    registry.counter("A", "cpu", "charged_us")
    pipeline.finish(250.0)
    assert pipeline.windows_closed == 2
    assert all(not r.partial for r in pipeline.rollups)


# ---------------------------------------------------------------------------
# Counter aggregates: deltas, rates, EWMA, sliding
# ---------------------------------------------------------------------------


def test_deltas_rates_and_pair_aggregates():
    bus, registry, pipeline = _pipeline()
    a = registry.counter("A", "cpu", "charged_us")
    b = registry.counter("B", "cpu", "charged_us")
    a.inc(90)
    b.inc(10)
    pipeline._advance(101.0)
    rollup = pipeline.rollups[-1]
    assert rollup.deltas == {
        ("A", "cpu", "charged_us"): 90.0,
        ("B", "cpu", "charged_us"): 10.0,
    }
    assert rollup.active_keys == 2
    # 90 over a 100us window = 900k/s.
    assert rollup.rates[("A", "cpu", "charged_us")] == pytest.approx(9e5)
    assert rollup.delta_sum("cpu", "charged_us") == pytest.approx(100.0)
    assert rollup.rate_sum("cpu", "charged_us") == pytest.approx(1e6)
    assert sorted(rollup.pair_items("cpu", "charged_us")) == [
        ("A", 90.0), ("B", 10.0),
    ]
    assert rollup.pair_items("net", "syns") == []


def test_ewma_blends_and_decays_when_idle():
    bus, registry, pipeline = _pipeline(ewma_alpha=0.3)
    a = registry.counter("A", "cpu", "x")
    key = ("A", "cpu", "x")
    a.inc(10)            # w1: rate 1e5 -> first-seen EWMA = rate
    pipeline._advance(101.0)
    assert pipeline.rollups[-1].ewma[key] == pytest.approx(1e5)
    a.inc(20)            # w2: rate 2e5 -> 0.3*2e5 + 0.7*1e5
    pipeline._advance(201.0)
    assert pipeline.rollups[-1].ewma[key] == pytest.approx(1.3e5)
    pipeline._advance(301.0)  # w3 idle: decays toward zero, stays listed
    assert pipeline.rollups[-1].ewma[key] == pytest.approx(0.7 * 1.3e5)
    assert pipeline.rollups[-1].deltas == {}


def test_never_active_keys_stay_out_of_ewma():
    bus, registry, pipeline = _pipeline()
    registry.counter("A", "cpu", "x").inc(1)
    registry.counter("B", "cpu", "x")  # registered, never incremented
    pipeline._advance(101.0)
    assert ("B", "cpu", "x") not in pipeline.rollups[-1].ewma


def test_sliding_mean_max_with_idle_windows_as_zero():
    bus, registry, pipeline = _pipeline(slow_windows=5)
    a = registry.counter("A", "cpu", "x")
    b = registry.counter("B", "cpu", "x")
    a.inc(10)                 # w1: A rate 1e5, B idle
    pipeline._advance(101.0)
    assert pipeline.rollups[-1].sliding[("A", "cpu", "x")] == (1e5, 1e5, 1)
    a.inc(20)                 # w2: A rate 2e5, B first activity (4e4)
    b.inc(4)
    pipeline._advance(201.0)
    sliding = pipeline.rollups[-1].sliding
    # Uniform n across keys; B's pre-existence window counts as zero.
    assert sliding[("A", "cpu", "x")] == (
        pytest.approx(1.5e5), pytest.approx(2e5), 2
    )
    assert sliding[("B", "cpu", "x")] == (
        pytest.approx(2e4), pytest.approx(4e4), 2
    )
    pipeline._advance(301.0)  # w3 idle: no active keys -> empty view
    assert pipeline.rollups[-1].sliding == {}
    a.inc(30)                 # w4: A active again; w3's zero dilutes mean
    pipeline._advance(401.0)
    mean, worst, n = pipeline.rollups[-1].sliding[("A", "cpu", "x")]
    assert n == 4
    assert mean == pytest.approx((1e5 + 2e5 + 0.0 + 3e5) / 4)
    assert worst == pytest.approx(3e5)


def test_sliding_span_is_capped_at_slow_windows():
    bus, registry, pipeline = _pipeline(slow_windows=2)
    a = registry.counter("A", "cpu", "x")
    for i in range(4):
        a.inc(10 * (i + 1))
        pipeline._advance((i + 1) * WINDOW + 1.0)
    mean, worst, n = pipeline.rollups[-1].sliding[("A", "cpu", "x")]
    assert n == 2  # only the newest two windows (rates 3e5, 4e5)
    assert mean == pytest.approx(3.5e5)
    assert worst == pytest.approx(4e5)


def test_rate_series_is_sparse_but_sliding_is_dense():
    bus, registry, pipeline = _pipeline()
    a = registry.counter("A", "cpu", "x")
    a.inc(10)
    pipeline._advance(101.0)
    pipeline._advance(201.0)  # idle
    a.inc(10)
    pipeline._advance(301.0)
    series = pipeline.series(("A", "cpu", "x", "rate"))
    # No point for the idle window: series stay sparse.
    assert [t for t, _ in series.points()] == [100.0, 300.0]


def test_registry_growth_mid_run_extends_partition():
    bus, registry, pipeline = _pipeline()
    registry.counter("A", "cpu", "x").inc(1)
    pipeline._advance(101.0)
    late = registry.counter("Z", "net", "syns")  # registered after w1
    late.inc(7)
    pipeline._advance(201.0)
    rollup = pipeline.rollups[-1]
    assert rollup.deltas == {("Z", "net", "syns"): 7.0}
    assert rollup.delta_sum("net", "syns") == 7.0


# ---------------------------------------------------------------------------
# Gauges and samplers
# ---------------------------------------------------------------------------


def test_gauges_snapshot_every_window():
    bus, registry, pipeline = _pipeline()
    gauge = registry.gauge("A", "net", "depth")
    gauge.set(5.0)
    pipeline._advance(101.0)
    gauge.set(9.0)
    pipeline._advance(201.0)
    assert [r.gauges[("A", "net", "depth")] for r in pipeline.rollups] == [
        5.0, 9.0,
    ]
    series = pipeline.series(("A", "net", "depth", "gauge"))
    assert series.points() == [(100.0, 5.0), (200.0, 9.0)]
    assert pipeline.rollups[-1].gauge_max("net", "depth") == 9.0


def test_samplers_feed_gauges_at_close_time():
    bus, registry, pipeline = _pipeline()
    pipeline.add_sampler(lambda now: [("A", "mem", "resident", now * 2.0)])
    pipeline._advance(101.0)
    assert pipeline.rollups[-1].gauges[("A", "mem", "resident")] == 200.0


# ---------------------------------------------------------------------------
# Latency histograms
# ---------------------------------------------------------------------------


def test_latency_records_fold_into_window_summaries():
    bus, registry, pipeline = _pipeline()
    for latency in (10.0, 20.0, 40.0):
        bus.publish(50.0, "client.complete", req=1, client="c",
                    latency_us=latency)
    bus.publish(150.0, "cpu.slice", amount_us=1.0)  # close w1
    rollup = pipeline.rollups[-1]
    summary = rollup.latency[("c", "client", "latency_us")]
    assert summary["count"] == 3
    assert summary["p50"] >= 20.0
    # Quantile series materialize under suffixed keys.
    assert pipeline.series(("c", "client", "latency_us", "p99")) is not None
    # Histograms are per-window: the next window starts fresh.
    bus.publish(250.0, "cpu.slice", amount_us=1.0)
    assert pipeline.rollups[-1].latency == {}


# ---------------------------------------------------------------------------
# Retention bounds and determinism
# ---------------------------------------------------------------------------


def test_retention_cap_bounds_series_and_counts_drops():
    bus, registry, pipeline = _pipeline(series_cap=10)
    a = registry.counter("A", "cpu", "x")
    for i in range(25):
        a.inc(1)
        pipeline._advance((i + 1) * WINDOW + 1.0)
    series = pipeline.series(("A", "cpu", "x", "rate"))
    assert len(series) == 10
    assert series.dropped_points == 15
    assert pipeline.dropped_points == 15
    # The rollup ring obeys the same cap discipline.
    assert len(pipeline.rollups) == 10
    assert pipeline.dropped_rollups == 15


def test_million_event_run_stays_in_fixed_memory_envelope():
    """10^6 counter observations across 10^4 windows: retention stays
    bounded by cap * series, drops are counted, nothing accumulates."""
    bus, registry, pipeline = _pipeline()
    counters = [
        registry.counter(f"c{i}", "cpu", "charged_us") for i in range(4)
    ]
    events = 0
    window_index = 0
    while events < 1_000_000:
        for counter in counters:
            counter.inc(25)
            events += 25
        window_index += 1
        pipeline._advance(window_index * WINDOW + 1.0)
    assert events == 1_000_000
    assert pipeline.windows_closed == window_index
    cap = DEFAULT_SERIES_CAP
    assert len(pipeline.rollups) == cap
    assert pipeline.retained_points <= cap * len(pipeline._series)
    assert pipeline.dropped_points == len(counters) * (window_index - cap)
    # The per-key series really did evict from the front.
    series = pipeline.series(("c0", "cpu", "charged_us", "rate"))
    assert len(series) == cap


def test_identical_runs_produce_identical_rollup_dumps():
    def run() -> list:
        bus, registry, pipeline = _pipeline()
        a = registry.counter("A", "cpu", "x")
        g = registry.gauge("A", "net", "depth")
        for i in range(7):
            a.inc(3 * (i % 3))
            g.set(float(i))
            bus.publish(20.0 + i * 40.0, "client.complete", req=i,
                        client="A", latency_us=10.0 * (i + 1))
            pipeline._advance((i + 1) * WINDOW + 1.0)
        pipeline.finish(760.0)
        return [rollup.to_dict() for rollup in pipeline.rollups]

    assert run() == run()


def test_obs_window_records_publish_on_the_bus():
    bus = TraceBus()
    seen = []
    bus.subscribe("obs.window", lambda record: seen.append(record))
    registry = MetricsRegistry()
    pipeline = TimeSeriesPipeline(registry, bus, window_us=WINDOW)
    registry.counter("A", "cpu", "x").inc(5)
    pipeline._advance(101.0)
    assert len(seen) == 1
    assert seen[0].data["index"] == 0
    assert seen[0].data["active_keys"] == 1
    # The obs.window record itself must not re-enter the pipeline
    # (re-entrancy guard), so exactly one window closed.
    assert pipeline.windows_closed == 1


def test_summary_line_mentions_the_essentials():
    bus, registry, pipeline = _pipeline()
    registry.counter("A", "cpu", "x").inc(5)
    pipeline._advance(101.0)
    line = pipeline.summary()
    assert "1 closed" in line
    assert "0 dropped by cap" in line
