"""Statistics helpers for the bench harness and the adversary toolkit.

These are thin, well-tested wrappers so that the rest of the library never
hand-rolls a mean/stdev or an entropy estimate.
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


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Return (mean, half-width) of a normal-approximation CI for *values*."""
    s = summarize(values)
    if s.n < 2:
        return s.mean, 0.0
    # 0.95 -> 1.96; use the inverse error function for other levels.
    z = math.sqrt(2) * _erfinv(confidence)
    half = z * s.stdev / math.sqrt(s.n)
    return s.mean, half


def _erfinv(x: float) -> float:
    """Inverse error function via the Giles (2012) rational approximation."""
    if not -1.0 < x < 1.0:
        raise ValueError("erfinv domain is (-1, 1)")
    w = -math.log((1.0 - x) * (1.0 + x))
    if w < 5.0:
        w -= 2.5
        p = 2.81022636e-08
        for c in (
            3.43273939e-07,
            -3.5233877e-06,
            -4.39150654e-06,
            0.00021858087,
            -0.00125372503,
            -0.00417768164,
            0.246640727,
            1.50140941,
        ):
            p = p * w + c
    else:
        w = math.sqrt(w) - 3.0
        p = -0.000200214257
        for c in (
            0.000100950558,
            0.00134934322,
            -0.00367342844,
            0.00573950773,
            -0.0076224613,
            0.00943887047,
            1.00167406,
            2.83297682,
        ):
            p = p * w + c
    return p * x
