"""Metric primitives: counters, gauges and fixed-bucket latency histograms.

The registry is deliberately simulation-friendly: metrics never draw
randomness and never touch a clock, so enabling observability cannot
perturb a seeded experiment. Histograms use fixed log-spaced buckets (the
Prometheus model) so percentile queries are O(buckets) and the memory cost
of a run is independent of how many latencies were observed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, Tuple

from repro.errors import ObsError

#: Latency buckets in seconds: 1-2-5 decades from 1 µs to 10 s.
#: Wide enough for everything the stack models, from a single eMMC read
#: (~100 µs) to a whole-partition initialization pass (minutes land in the
#: overflow bucket, which percentile() clamps to the observed maximum).
LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    m * 10.0 ** e for e in range(-6, 1) for m in (1.0, 2.0, 5.0)
) + (10.0,)

#: Serialized bucket labels by index: ``f"{bound:g}"``, then ``inf``.
_BUCKET_LABELS: Tuple[str, ...] = tuple(
    f"{bound:g}" for bound in LATENCY_BUCKETS
) + ("inf",)


class Counter:
    """A monotonically increasing count (events, bytes, ops)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {value}")
        self.value += value

    def as_dict(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value (occupancy ratio, amplification factor)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_dict(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    :data:`LATENCY_BUCKETS` are inclusive upper bucket edges; values above
    the last bound land in an implicit overflow bucket. Percentiles interpolate
    linearly within the bucket the target rank falls in and clamp to the
    observed min/max, so estimates are exact at the extremes and never
    outside the observed range. ``total`` is a float while observing and
    an exact rational once :meth:`fold` has merged serialized histograms.
    """

    __slots__ = ("name", "_counts", "count", "total", "_min", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._counts = [0] * (len(LATENCY_BUCKETS) + 1)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self._counts[bisect_left(LATENCY_BUCKETS, value)] += 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def fold(self, data: Dict[str, object]) -> None:
        """Fold one serialized :meth:`as_dict` histogram into this one.

        Bucket labels map back to indices through the labels
        :meth:`bucket_counts` writes; counts add and min/max take the
        extremes. The total becomes an exact :class:`~fractions.Fraction`
        (``mean_s * count`` per dict), so any fold order yields the same
        :attr:`mean` to the bit. A label the buckets do not produce
        raises :class:`~repro.errors.ObsError`: serialized histograms come
        from spool files, i.e. from outside the process.
        """
        for label, n in data.get("buckets", {}).items():
            if label not in _BUCKET_LABELS:
                raise ObsError(
                    f"histogram {self.name!r}: unknown bucket label {label!r}"
                )
            self._counts[_BUCKET_LABELS.index(label)] += int(n)
        count = int(data["count"])
        self.count += count
        self.total = Fraction(self.total) + Fraction(data["mean_s"]) * count
        if count:
            self._min = min(self._min, float(data["min_s"]))
            self._max = max(self._max, float(data["max_s"]))

    # -- derived statistics -------------------------------------------------

    @property
    def mean(self) -> float:
        return float(self.total / self.count) if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the *q*-quantile (``q`` in (0, 1]) from the buckets."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                lo = LATENCY_BUCKETS[i - 1] if i > 0 else self.minimum
                hi = (
                    LATENCY_BUCKETS[i] if i < len(LATENCY_BUCKETS)
                    else self.maximum
                )
                fraction = (target - (cumulative - bucket_count)) / bucket_count
                value = lo + fraction * (hi - lo)
                return min(max(value, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - cumulative always reaches

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def cumulative_buckets(self) -> Tuple[Tuple[float, int], ...]:
        """Cumulative ``(upper_bound, count_at_or_below)`` pairs.

        The Prometheus bucket model: each entry counts every observation
        less than or equal to its bound, and the final ``(inf, count)``
        entry covers the overflow bucket, so the last cumulative count
        always equals :attr:`count`. Used by the text exposition renderer.
        """
        out = []
        cumulative = 0
        for bound, bucket_count in zip(LATENCY_BUCKETS, self._counts):
            cumulative += bucket_count
            out.append((bound, cumulative))
        out.append((math.inf, self.count))
        return tuple(out)

    def bucket_counts(self) -> Dict[str, int]:
        """Non-empty buckets keyed by upper bound (``inf`` = overflow)."""
        return {
            _BUCKET_LABELS[i]: n for i, n in enumerate(self._counts) if n
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean_s": self.mean,
            "min_s": self.minimum,
            "max_s": self.maximum,
            "p50_s": self.p50,
            "p95_s": self.p95,
            "p99_s": self.p99,
            "buckets": self.bucket_counts(),
        }


class MetricRegistry:
    """Create-on-first-use registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        return metric

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self.histograms.items())
            },
        }
