"""Metrics registry: counters, gauges, histograms, and timer contexts.

The registry is the in-process accumulation point for everything the
pipeline measures about itself — walks/sec, per-epoch loss, checkpoint
bytes, retry counts. Three instrument kinds (the Prometheus trio, minus
labels — names are dotted strings like ``train.epoch_seconds``):

- :class:`Counter`   — monotonically increasing float (``inc``).
- :class:`Gauge`     — last-write-wins value (``set``).
- :class:`Histogram` — running count/sum/min/max plus a bounded sample
  of observations for percentile estimates (``observe``).

``registry.time(name)`` is an explicit timer context that observes the
block's wall-clock seconds into the named histogram::

    with registry.time("walks.chunk_seconds"):
        chunk = compute()

The disabled path has no registry: the null recorder's
``inc``/``set``/``observe`` return at once and its ``time`` hands back
the shared null span (see benchmarks/test_perf_obs_overhead.py for the
< 3% hot-loop guard).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

# Histograms keep at most the first HISTOGRAM_SAMPLE_CAP raw observations
# for percentile estimates (p50/p95/p99); count/sum/min/max stay exact
# beyond it. The cap bounds memory (one float per sample) at the cost of
# percentiles reflecting only the head of very long runs — tail-heavy
# shifts after the cap move mean/max but not p50/p95/p99. Snapshots
# record ``sample_capped`` so a consumer can tell estimated-from-head
# percentiles from exact ones.
HISTOGRAM_SAMPLE_CAP = 4096


class Counter:
    """Monotonic counter. ``inc`` with a negative amount is an error."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-write-wins value (``nan`` until first set)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Running distribution summary over observed values."""

    __slots__ = ("name", "count", "total", "min", "max", "_sample")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._sample: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._sample) < HISTOGRAM_SAMPLE_CAP:
            self._sample.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0-100) from the sample."""
        if not self._sample:
            return math.nan
        ordered = sorted(self._sample)
        idx = min(int(len(ordered) * q / 100.0), len(ordered) - 1)
        return ordered[idx]

    def snapshot(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        snap = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }
        if self.count > len(self._sample):
            snap["sample_capped"] = True
        return snap


class _Timer:
    """Context manager observing elapsed seconds into a histogram."""

    __slots__ = ("_hist", "seconds", "_start")

    def __init__(self, hist: Histogram) -> None:
        self._hist = hist
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.seconds = time.perf_counter() - self._start
        self._hist.observe(self.seconds)


class MetricsRegistry:
    """Named metric instruments, created on first use.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for ``counter("x")`` after ``gauge("x")`` raises. Thread-safe
    for instrument creation (hot-path mutation of an instrument is a
    plain float op — the GIL is enough for our single-writer usage).
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(name, kind(name))
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # Convenience one-shots -------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def time(self, name: str) -> _Timer:
        """Explicit timer context: observes seconds into ``name``."""
        return _Timer(self.histogram(name))

    # Introspection ----------------------------------------------------
    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """All current values, grouped by instrument kind (JSON-able)."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in self:
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.snapshot()
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.snapshot()
            else:
                out["histograms"][name] = metric.snapshot()
        return out
