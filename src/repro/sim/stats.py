"""Metric collection for simulation experiments.

Counters, streaming mean/variance (Welford), fixed-bucket latency
histograms with percentile queries, and windowed throughput meters.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass


@dataclass
class Counter:
    """A monotonically increasing named counter."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class WelfordStats:
    """Streaming mean / variance / min / max in O(1) per sample."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def relative_stddev(self) -> float:
        """Coefficient of variation; the paper reports "SD < x%"."""
        return self.stddev / self.mean if self.mean else 0.0


class Histogram:
    """Latency histogram with geometric buckets and percentile queries.

    Buckets grow geometrically from ``min_value`` so microsecond and
    second scale latencies share one histogram with bounded error.
    """

    def __init__(
        self,
        min_value: float = 1e-6,
        max_value: float = 100.0,
        growth: float = 1.1,
    ):
        if min_value <= 0 or max_value <= min_value or growth <= 1.0:
            raise ValueError("invalid histogram parameters")
        bounds = [min_value]
        while bounds[-1] < max_value:
            bounds.append(bounds[-1] * growth)
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self.stats = WelfordStats()

    def add(self, value: float) -> None:
        self.stats.add(value)
        index = bisect.bisect_right(self._bounds, value)
        self._counts[index] += 1

    def reset(self) -> None:
        """Clear all samples (e.g. at the end of a warmup phase)."""
        self._counts = [0] * len(self._counts)
        self.stats = WelfordStats()

    @property
    def count(self) -> int:
        return self.stats.count

    def percentile(self, pct: float) -> float:
        """Return an upper bound for the ``pct``-th percentile."""
        if not 0 < pct <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if not self.stats.count:
            return 0.0
        target = math.ceil(self.stats.count * pct / 100.0)
        running = 0
        for index, count in enumerate(self._counts):
            running += count
            if running >= target:
                if index == 0:
                    return self._bounds[0]
                if index > len(self._bounds) - 1:
                    return self.stats.max
                return self._bounds[index]
        return self.stats.max

    @property
    def mean(self) -> float:
        return self.stats.mean


@dataclass
class ThroughputMeter:
    """Counts completed operations inside a measurement window.

    ``open_window`` marks the start (after warmup); ``rate`` divides
    completions by elapsed virtual time.
    """

    started_at: float | None = None
    closed_at: float | None = None
    completed: int = 0

    def open_window(self, now: float) -> None:
        self.started_at = now
        self.completed = 0

    def close_window(self, now: float) -> None:
        self.closed_at = now

    def record(self) -> None:
        self.completed += 1

    def rate(self, now: float | None = None) -> float:
        """Operations per second over the open window."""
        if self.started_at is None:
            return 0.0
        end = self.closed_at if self.closed_at is not None else now
        if end is None or end <= self.started_at:
            return 0.0
        return self.completed / (end - self.started_at)
