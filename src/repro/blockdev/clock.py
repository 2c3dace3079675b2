"""Simulated clock.

Every component of the reproduced storage stack — block devices, the device
mapper, the Android framework model — shares one :class:`SimClock`. Block
operations and orchestration steps *advance* the clock by modeled costs
instead of sleeping, so the timing experiments of the paper (Fig. 4 and
Table II) run deterministically and in milliseconds of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimClock:
    """A monotonically advancing simulated clock, in seconds."""

    now: float = 0.0

    def advance(self, seconds: float, reason: str = "") -> None:
        """Advance the clock by *seconds* (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self.now += seconds


class Stopwatch:
    """Measure a span of simulated time.

    >>> clock = SimClock()
    >>> with Stopwatch(clock) as sw:
    ...     clock.advance(1.5)
    >>> sw.elapsed
    1.5
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start: float = 0.0
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock.now
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = self._clock.now - self._start
