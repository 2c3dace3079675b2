"""Randomness sources for the simulation.

The whole reproduction is deterministic given a seed: every component that
needs randomness takes a :class:`Rng` (or derives one via
:func:`Rng.fork`), so experiments are replayable and tests are stable.

Two hardware-flavoured sources from the paper are modeled on top:

* :class:`JiffiesSource` — the kernel ``jiffies`` tick counter the prototype
  uses to refresh ``stored_rand`` (Sec. V-A), driven by the simulated clock.
* :class:`FlashNoiseTRNG` — a true-RNG extracting entropy from flash-cell
  noise (paper ref. [41]), modeled as a noise pool hashed on extraction.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Optional

from repro.blockdev.clock import SimClock

#: Linux HZ on the prototype's 3.4 kernel (msm builds use 100).
KERNEL_HZ = 100


class Rng:
    """Seedable random source used by every stochastic component.

    A thin wrapper over :class:`random.Random` with the handful of methods
    the stack needs, plus :meth:`fork` for handing independent streams to
    subcomponents without correlated draws.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._random = random.Random(seed)
        self._seed = seed

    def random_bytes(self, n: int) -> bytes:
        return self._random.randbytes(n)

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b], both ends inclusive."""
        return self._random.randint(a, b)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def sample(self, population, k: int):
        return self._random.sample(population, k)

    def exponential(self, rate: float) -> float:
        """Exponentially distributed draw with rate *rate* (mean 1/rate).

        Implemented by inversion — ``-ln(1 - f) / rate`` with f uniform in
        (0, 1) — which is literally the formula in Sec. IV-B of the paper.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        f = self._random.random()
        # random() is in [0, 1); 1 - f is in (0, 1], so log is defined.
        return -math.log(1.0 - f) / rate

    def fork(self, label: str) -> "Rng":
        """Derive an independent child stream keyed by *label*."""
        material = hashlib.sha256(
            repr(self._seed).encode() + b"/" + label.encode()
        ).digest()
        return Rng(int.from_bytes(material[:8], "big"))


class JiffiesSource:
    """The kernel ``jiffies`` counter, derived from the simulated clock.

    The MobiCeal prototype samples jiffies as the seed for ``stored_rand``
    because write arrival times are unpredictable; we reproduce that by
    mixing the simulated-time tick count with an entropy stream (arrival
    times in the simulation are less rich than on a real phone).
    """

    def __init__(self, clock: SimClock, rng: Rng) -> None:
        self._clock = clock
        self._rng = rng

    @property
    def jiffies(self) -> int:
        return int(self._clock.now * KERNEL_HZ)

    def sample(self) -> int:
        """Sample a jiffies-derived random value (non-negative)."""
        mixed = hashlib.sha256(
            self.jiffies.to_bytes(8, "little") + self._rng.random_bytes(8)
        ).digest()
        return int.from_bytes(mixed[:8], "little")


class FlashNoiseTRNG:
    """True RNG extracting entropy from flash-memory noise (paper ref. [41]).

    Wang et al. show NAND cells exhibit exploitable thermal/RTN noise. We
    model a noise pool that accumulates observation words and is hashed on
    extraction; statistically the output is uniform, which is all the
    consumers (``stored_rand`` refresh, dummy data generation) rely on.
    """

    #: bytes in the noise pool
    POOL_SIZE = 64

    def __init__(self, rng: Rng) -> None:
        self._rng = rng
        self._pool = bytearray(rng.random_bytes(self.POOL_SIZE))
        self._counter = 0

    def observe_noise(self) -> None:
        """Fold one simulated flash-noise observation into the pool."""
        noise = self._rng.random_bytes(8)
        for i, b in enumerate(noise):
            self._pool[(self._counter + i) % len(self._pool)] ^= b
        self._counter += len(noise)

    def extract(self, n: int) -> bytes:
        """Extract *n* bytes of conditioned randomness."""
        out = bytearray()
        block = 0
        while len(out) < n:
            self.observe_noise()
            h = hashlib.sha256(bytes(self._pool) + block.to_bytes(4, "little"))
            out.extend(h.digest())
            block += 1
        return bytes(out[:n])

    def extract_int(self, bits: int = 64) -> int:
        """Extract a non-negative integer with *bits* bits of entropy."""
        nbytes = (bits + 7) // 8
        return int.from_bytes(self.extract(nbytes), "little") % (1 << bits)
