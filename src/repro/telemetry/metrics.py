"""The process-local metrics registry: counters, gauges, histograms.

Zero-dependency and allocation-light: a metric is created on first touch
and updated in place afterwards.  Names are dotted strings following the
``<subsystem>.<quantity>`` scheme documented in ARCHITECTURE.md
(``store.hits``, ``jobs.run_seconds``, ``solver.total_rounds``, ...).

Histograms use *fixed* bucket bounds chosen at creation (defaulting to
:data:`DEFAULT_LATENCY_BUCKETS`, a log-spaced grid from 100 µs to 60 s):
``observe`` is one bisect plus three scalar updates, and quantiles are
answered by linear interpolation inside the owning bucket — the p50/p95/p99
story the serving benchmarks need without storing raw samples.

Updates are GIL-atomic per metric (single bytecode-level ``+=`` on ints and
floats); metric *creation* takes the registry lock, so concurrent threads
can safely get-or-create the same name.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Optional, Sequence

from repro.errors import TelemetryError

#: Default histogram bounds (seconds): log-spaced 100 µs → 60 s.  The last
#: implicit bucket is unbounded (+inf).
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram with sum/count/min/max sidecars.

    ``bounds`` are ascending bucket upper edges; an implicit final bucket
    catches everything above the last bound.  ``counts[i]`` is the number
    of observations ``v <= bounds[i]`` (and ``counts[-1]`` the overflow).
    """

    __slots__ = ("name", "bounds", "counts", "total", "count", "min", "max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        chosen = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BUCKETS
        if not chosen or list(chosen) != sorted(set(chosen)):
            raise TelemetryError(
                f"histogram {name!r} needs strictly ascending bucket bounds"
            )
        self.bounds = chosen
        self.counts = [0] * (len(chosen) + 1)
        self.total = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0 ≤ q ≤ 1) by linear interpolation
        inside the owning bucket, clamped to the observed min/max."""
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.bounds[index - 1] if index > 0 else min(self.min, self.bounds[0])
                hi = self.bounds[index] if index < len(self.bounds) else self.max
                lo = max(lo, self.min) if index == 0 else lo
                hi = min(hi, self.max)
                lo = min(lo, hi)
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * max(0.0, min(1.0, fraction))
            cumulative += bucket_count
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Name-keyed get-or-create registry of the three metric kinds."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind, *args):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = kind(name, *args)
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TelemetryError(
                f"metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        if bounds is None:
            return self._get_or_create(name, Histogram)
        return self._get_or_create(name, Histogram, bounds)

    # -- one-call conveniences (what instrumented sites use) ---------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict:
        """Plain dicts by kind — the ``telemetry.snapshot()`` metrics leg."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.as_dict()  # type: ignore[union-attr]
        return {"counters": counters, "gauges": gauges, "histograms": histograms}
