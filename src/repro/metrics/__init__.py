"""Measurement helpers: throughput, latency, CPU-share series, and the
text renderers that print paper-style tables."""

from repro.metrics.billing import BillingReport, Tariff
from repro.metrics.stats import Series, ThroughputMeter, mean, percentile

__all__ = [
    "BillingReport",
    "Series",
    "Tariff",
    "ThroughputMeter",
    "mean",
    "percentile",
]
