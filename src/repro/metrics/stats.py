"""Measurement primitives used by the experiment harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean.  Raises ValueError on an empty sequence: an
    empty window has no mean, and silently reporting 0.0 would make a
    measurement bug look like a perfect latency figure.  Callers with a
    meaningful empty-window default handle it explicitly."""
    if not values:
        raise ValueError("mean of an empty sequence")
    return sum(values) / len(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (NIST/numpy ``linear`` method).
    Raises ValueError on an empty sequence or an out-of-range ``pct``,
    in that argument-checking order."""
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be 0..100, got {pct}")
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


@dataclass
class ThroughputMeter:
    """Counts completions inside a measurement window.

    Experiments run a warm-up period before ``start()`` so queues and
    scheduler state reach steady state, exactly as a benchmark on real
    hardware would.
    """

    started_at: Optional[float] = None
    stopped_at: Optional[float] = None
    count: int = 0

    def start(self, now: float) -> None:
        """Open the measurement window."""
        self.started_at = now
        self.count = 0

    def stop(self, now: float) -> None:
        """Close the measurement window."""
        self.stopped_at = now

    def record(self, now: float) -> None:
        """Count one completion if the window is open."""
        if self.started_at is None or now < self.started_at:
            return
        if self.stopped_at is not None and now > self.stopped_at:
            return
        self.count += 1

    def rate_per_second(self, now: Optional[float] = None) -> float:
        """Completions per simulated second over the open window."""
        if self.started_at is None:
            return 0.0
        end = self.stopped_at if self.stopped_at is not None else now
        if end is None or end <= self.started_at:
            return 0.0
        return self.count / ((end - self.started_at) / 1_000_000.0)


@dataclass
class Series:
    """One plotted curve: label plus (x, y) points."""

    label: str
    points: list = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.points.append((x, y))

    def xs(self) -> list:
        """X coordinates."""
        return [p[0] for p in self.points]

    def ys(self) -> list:
        """Y coordinates."""
        return [p[1] for p in self.points]
