"""Simulated clock.

Every component of the reproduced storage stack — block devices, the device
mapper, the Android framework model — shares one :class:`SimClock`. Block
operations and orchestration steps *advance* the clock by modeled costs
instead of sleeping, so the timing experiments of the paper (Fig. 4 and
Table II) run deterministically and in milliseconds of wall time.

Every charge names its *reason*, a dotted name whose first component is
the layer that pays it (``emmc.write``, ``crypt.cpu``, ``thin.lookup``,
``pde.noise``, ...; the prefix table is
:data:`repro.obs.attribution.LAYER_BY_PREFIX`). The clock books each
charge into :attr:`SimClock.charged` by reason, which is what
``repro profile`` folds into its per-layer report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimClock:
    """A monotonically advancing simulated clock, in seconds.

    ``charged`` is the ledger: seconds per reason, each the float sum of
    that reason's charges in call order. It never feeds back into
    ``now``, so booking it cannot move a simulated result.
    """

    now: float = 0.0
    charged: Dict[str, float] = field(default_factory=dict)

    def advance(self, seconds: float, reason: str) -> None:
        """Advance the clock by *seconds* (>= 0), booked to *reason*."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self.now += seconds
        charged = self.charged
        charged[reason] = charged.get(reason, 0.0) + seconds


class Stopwatch:
    """Measure a span of simulated time.

    >>> clock = SimClock()
    >>> with Stopwatch(clock) as sw:
    ...     clock.advance(1.5, "workload.think")
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
