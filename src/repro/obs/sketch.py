"""Mergeable, fixed-size metric sketches for streaming fleet telemetry.

The fleet reducer folds per-device shards in whatever order spool files
arrive, so every sketch here is built to make the merge order
**unobservable**: all merge state is either integer (bucket counts),
order-independent by construction (min/max), or an exact rational sum
(:class:`fractions.Fraction` — every float is an exact rational, and
rational addition is associative *and* commutative, unlike float
addition). ``tests/test_sketch.py`` property-tests associativity and
commutativity down to byte-identical serialization.

Two sketches:

* :class:`QuantileSketch` — a DDSketch-style bounded quantile sketch
  (log-spaced buckets at fixed relative accuracy, clamped index range)
  for wall-clock metrics whose scale is unknown up front. Memory is a
  hard constant regardless of how many values are observed.
* :class:`MetricSnapshot` — point-in-time counter/gauge capture with
  delta computation, the unit the periodic ``telemetry.v1`` snapshot
  events are built from.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional

from repro.errors import ObsError
from repro.obs.metrics import MetricRegistry

#: Default relative accuracy of :class:`QuantileSketch` quantiles.
DEFAULT_ALPHA = 0.01

#: Values below this land in the zero bucket (they are indistinguishable
#: from zero at any tracked accuracy); values above the max are clamped
#: into the top bucket. Together the two bounds fix the index range and
#: hence the sketch's worst-case size (~2.1k buckets at alpha=0.01).
MIN_TRACKED = 1e-9
MAX_TRACKED = 1e9


class QuantileSketch:
    """Bounded-memory quantile sketch with exactly order-independent merges.

    DDSketch layout: value *v* lands in bucket ``ceil(log(v) / log(gamma))``
    with ``gamma = (1 + alpha) / (1 - alpha)``, so every bucket's midpoint
    estimate is within relative error *alpha* of any value it holds. The
    index range is clamped to the buckets covering
    ``[MIN_TRACKED, MAX_TRACKED]``, which bounds memory no matter how many
    values stream through. All merge state is integers, min/max, and an
    exact :class:`~fractions.Fraction` sum, so ``merge`` is associative
    and commutative bit-for-bit.
    """

    __slots__ = (
        "alpha", "_gamma", "_log_gamma", "_lo", "_hi",
        "count", "zero_count", "_buckets", "_sum", "_min", "_max",
    )

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha < 1.0:
            raise ObsError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._lo = int(math.ceil(math.log(MIN_TRACKED) / self._log_gamma))
        self._hi = int(math.ceil(math.log(MAX_TRACKED) / self._log_gamma))
        self.count = 0
        self.zero_count = 0
        self._buckets: Dict[int, int] = {}
        self._sum = Fraction(0)
        self._min = math.inf
        self._max = -math.inf

    # -- observing ----------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0.0:
            raise ObsError(f"quantile sketch values must be >= 0: {value}")
        self.count += 1
        self._sum += Fraction(value)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value < MIN_TRACKED:
            self.zero_count += 1
            return
        index = int(math.ceil(math.log(value) / self._log_gamma))
        index = min(max(index, self._lo), self._hi)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    # -- merging ------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold *other* into this sketch in place; returns ``self``.

        Exactly associative and commutative: merging shards in any order
        produces a byte-identical serialization.
        """
        if other.alpha != self.alpha:
            raise ObsError(
                f"cannot merge sketches of different accuracy: "
                f"{self.alpha} vs {other.alpha}"
            )
        self.count += other.count
        self.zero_count += other.zero_count
        self._sum += other._sum
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        return self

    # -- derived statistics -------------------------------------------------

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    @property
    def mean(self) -> float:
        return float(self._sum / self.count) if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (``q`` in (0, 1]), clamped to min/max."""
        if not 0.0 < q <= 1.0:
            raise ObsError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = self.zero_count
        if cumulative >= target:
            return self.minimum
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= target:
                # bucket midpoint: within relative error alpha of every
                # value the bucket holds
                value = 2.0 * self._gamma ** index / (self._gamma + 1.0)
                return min(max(value, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - cumulative always reaches

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form; round-trips exactly via :meth:`from_dict`.

        The exact sum is carried as a ``[numerator, denominator]`` integer
        pair so serialization loses nothing and merged shards stay
        byte-comparable.
        """
        return {
            "alpha": self.alpha,
            "count": self.count,
            "zero_count": self.zero_count,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
            "sum": [self._sum.numerator, self._sum.denominator],
            "buckets": {str(i): self._buckets[i] for i in sorted(self._buckets)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QuantileSketch":
        sketch = cls(alpha=float(data["alpha"]))
        sketch.count = int(data["count"])
        sketch.zero_count = int(data["zero_count"])
        if sketch.count:
            sketch._min = float(data["min"])
            sketch._max = float(data["max"])
        num, den = data["sum"]
        sketch._sum = Fraction(int(num), int(den))
        sketch._buckets = {
            int(i): int(n) for i, n in data.get("buckets", {}).items()
        }
        return sketch

    def summary(self) -> Dict[str, float]:
        """The human-facing percentile summary (floats only)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class MetricSnapshot:
    """Point-in-time capture of a registry's counters and gauges.

    ``delta(previous)`` computes per-counter increments since an earlier
    snapshot — the payload of the periodic ``telemetry.v1`` ``snapshot``
    events, which lets a tailing monitor derive rates without replaying
    the whole stream.
    """

    __slots__ = ("counters", "gauges")

    def __init__(
        self, counters: Dict[str, float], gauges: Dict[str, float]
    ) -> None:
        self.counters = counters
        self.gauges = gauges

    @classmethod
    def capture(cls, registry: MetricRegistry) -> "MetricSnapshot":
        return cls(
            counters={n: c.value for n, c in sorted(registry.counters.items())},
            gauges={n: g.value for n, g in sorted(registry.gauges.items())},
        )

    def delta(self, previous: Optional["MetricSnapshot"]) -> Dict[str, float]:
        """Counter increments since *previous* (``None`` = since zero)."""
        base = previous.counters if previous is not None else {}
        return {
            name: value - base.get(name, 0.0)
            for name, value in self.counters.items()
            if value != base.get(name, 0.0)
        }


def median(values: List[float]) -> float:
    """Plain exact median (the health scorer's robust fleet center)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
