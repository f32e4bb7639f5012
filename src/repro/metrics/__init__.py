"""Measurement helpers: throughput, latency, CPU-share series, and the
text renderers that print paper-style tables."""

from repro.metrics.billing import BillingReport, Tariff
from repro.metrics.stats import (
    LatencyRecorder,
    Series,
    ThroughputMeter,
    UsageSampler,
    mean,
    percentile,
)

__all__ = [
    "BillingReport",
    "LatencyRecorder",
    "Series",
    "Tariff",
    "ThroughputMeter",
    "UsageSampler",
    "mean",
    "percentile",
]
