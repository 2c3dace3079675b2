"""Statistics helpers for the bench harness, the adversary toolkit and
fleet telemetry.

These are thin, well-tested wrappers so that the rest of the library never
hand-rolls a mean/stdev, a percentile or an entropy estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Summary:
    """Mean/stdev summary of a sample, as reported in the paper's tables."""

    n: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return f"{self.mean:.2f}±{self.stdev:.2f} (n={self.n})"


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` of *values*.

    Uses the sample standard deviation (``n - 1`` denominator) to match what
    benchmark suites such as Bonnie++ report. A single observation yields a
    stdev of 0.
    """
    data = [float(v) for v in values]
    if not data:
        raise ValueError("cannot summarize an empty sample")
    n = len(data)
    mean = sum(data) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in data) / (n - 1)
    else:
        var = 0.0
    return Summary(
        n=n,
        mean=mean,
        stdev=math.sqrt(var),
        minimum=min(data),
        maximum=max(data),
    )


def shannon_entropy(data: bytes) -> float:
    """Shannon entropy of *data* in bits per byte (0.0–8.0).

    Encrypted or random blocks sit near 8.0; zero-filled or structured
    filesystem blocks sit far below. The adversary toolkit uses this to build
    entropy maps of disk snapshots.
    """
    if not data:
        return 0.0
    counts = [0] * 256
    for b in data:
        counts[b] += 1
    total = len(data)
    entropy = 0.0
    for c in counts:
        if c:
            p = c / total
            entropy -= p * math.log2(p)
    return entropy


def chi_square_uniform(data: bytes) -> float:
    """Chi-square statistic of *data* against the uniform byte distribution.

    Returns the p-value from scipy's chi-square survival function. Random
    data yields p-values spread over (0, 1); structured data yields p ~ 0.
    """
    if len(data) < 256:
        raise ValueError("need at least 256 bytes for a chi-square test")
    counts = [0] * 256
    for b in data:
        counts[b] += 1
    expected = len(data) / 256
    stat = sum((c - expected) ** 2 / expected for c in counts)
    from scipy.stats import chi2  # deferred: scipy.stats is slow to import

    return float(chi2.sf(stat, df=255))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank *q*-percentile of *values* (``q`` in (0, 1]).

    The smallest value with at least ``q * n`` of the *n* values at or
    below it: an element of the sample, never an interpolation, and
    ``q = 1.0`` is the maximum.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile q must be in (0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("cannot take a percentile of an empty sample")
    return ordered[math.ceil(q * len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    """Plain exact median (the health scorer's robust fleet center)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
