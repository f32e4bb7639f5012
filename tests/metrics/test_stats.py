"""Measurement helpers."""

import pytest

from repro.metrics.stats import Series, ThroughputMeter, mean, percentile


def test_mean_values():
    assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)


def test_mean_empty_raises():
    # An empty window has no mean; 0.0 would masquerade as a perfect
    # latency figure.
    with pytest.raises(ValueError):
        mean([])


def test_percentile_basics():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == pytest.approx(25.0)
    assert percentile([7.0], 90) == 7.0


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_validates_range_before_emptiness():
    with pytest.raises(ValueError, match="0..100"):
        percentile([1.0], 101)
    # Range is checked first, so a bad pct is reported as such even on
    # an empty sequence.
    with pytest.raises(ValueError, match="0..100"):
        percentile([], 200)


def test_percentile_matches_reference_quartiles():
    """Property-style check against the stdlib's independent
    implementation: on many seeded random samples, our linear
    interpolation must agree with ``statistics.quantiles`` (inclusive
    method -- the same NIST "linear" definition) at the quartiles."""
    import random
    import statistics

    rng = random.Random(1999)
    for trial in range(50):
        n = rng.randint(2, 40)
        values = [rng.uniform(-1e3, 1e3) for _ in range(n)]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        assert percentile(values, 25) == pytest.approx(q1)
        assert percentile(values, 50) == pytest.approx(q2)
        assert percentile(values, 75) == pytest.approx(q3)


def test_percentile_invariants_on_random_samples():
    """More properties: bounded by min/max, exact at the endpoints,
    monotone in pct, order-insensitive."""
    import random

    rng = random.Random(77)
    for trial in range(25):
        values = [rng.gauss(0.0, 100.0) for _ in range(rng.randint(1, 30))]
        lo, hi = min(values), max(values)
        assert percentile(values, 0) == lo
        assert percentile(values, 100) == hi
        previous = lo
        for pct in range(0, 101, 5):
            current = percentile(values, pct)
            assert lo <= current <= hi
            assert current >= previous - 1e-12
            previous = current
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert percentile(shuffled, 37.5) == percentile(values, 37.5)


def test_throughput_meter_window():
    meter = ThroughputMeter()
    meter.record(100.0)  # before start: ignored
    meter.start(1_000_000.0)
    for t in range(10):
        meter.record(1_000_000.0 + t * 1_000.0)
    meter.stop(2_000_000.0)
    meter.record(3_000_000.0)  # after stop: ignored
    assert meter.count == 10
    assert meter.rate_per_second() == pytest.approx(10.0)


def test_throughput_meter_without_stop_uses_now():
    meter = ThroughputMeter()
    meter.start(0.0)
    meter.record(1.0)
    assert meter.rate_per_second(now=500_000.0) == pytest.approx(2.0)


def test_series_accessors():
    series = Series("curve")
    series.add(1.0, 10.0)
    series.add(2.0, 20.0)
    assert series.xs() == [1.0, 2.0]
    assert series.ys() == [10.0, 20.0]
