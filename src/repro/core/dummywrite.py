"""The dummy-write mechanism (Sec. IV-B / V-A) — MobiCeal's core defense.

Each time a data block is provisioned for a real volume write, the policy:

1. decides whether to fire using the paper's trigger rule
   ``rand <= stored_rand mod x`` with ``rand`` uniform in ``[1, 2x]``
   (so the firing probability is always under 50 % and, because
   ``stored_rand`` is secret and periodically refreshed, untraceable);
2. draws the burst size ``m = ceil(m')`` with ``m' = -ln(1 - f) / lambda``
   — the exponential distribution of the paper, giving high variance while
   keeping large bursts rare;
3. scatters ``m`` noise blocks into a pseudo-randomly chosen volume
   ``j = (stored_rand mod (n-1)) + 2`` (Sec. IV-C).

``stored_rand`` is refreshed from the jiffies counter (as in the kernel
prototype) at most once per refresh period; the flash-noise TRNG is the
alternative, more conservative source the paper mentions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.blockdev.clock import SimClock
from repro.core.config import MobiCealConfig
from repro.crypto.kdf import derive_dummy_volume_index
from repro.crypto.rng import FlashNoiseTRNG, JiffiesSource, Rng
from repro.dm.thin.pool import ThinPool


@dataclass
class DummyWriteStats:
    """Counters exposed for the ablation benches and tests."""

    decisions: int = 0
    fired: int = 0
    blocks_written: int = 0
    refreshes: int = 0


class DummyWritePolicy:
    """Stateful dummy-write decision-maker, installed as the pool's hook."""

    def __init__(
        self,
        config: MobiCealConfig,
        rng: Rng,
        clock: SimClock,
        jiffies: Optional[JiffiesSource] = None,
        trng: Optional[FlashNoiseTRNG] = None,
        noise_byte_cost_s: float = 0.0,
    ) -> None:
        config.validate()
        self.config = config
        self._rng = rng
        self._clock = clock
        self._jiffies = jiffies
        self._trng = trng
        self._noise_byte_cost_s = noise_byte_cost_s
        self.stats = DummyWriteStats()
        self._stored_rand = self._draw_stored_rand()
        self._last_refresh = clock.now

    # -- stored_rand management -------------------------------------------------

    def _draw_stored_rand(self) -> int:
        """Sample a fresh ``stored_rand`` from the configured entropy source."""
        self.stats.refreshes += 1
        if self._trng is not None:
            return self._trng.extract_int(64)
        if self._jiffies is not None:
            return self._jiffies.sample()
        return self._rng.randint(0, 2**63 - 1)

    def _maybe_refresh(self) -> None:
        if self._clock.now - self._last_refresh >= self.config.stored_rand_refresh_s:
            self._stored_rand = self._draw_stored_rand()
            self._last_refresh = self._clock.now

    @property
    def stored_rand(self) -> int:
        return self._stored_rand

    # -- the paper's three formulas ---------------------------------------------

    def should_fire(self) -> bool:
        """Trigger rule: ``rand <= stored_rand mod x``, rand uniform [1, 2x]."""
        self._maybe_refresh()
        self.stats.decisions += 1
        x = self.config.dummy_trigger_x
        rand = self._rng.randint(1, 2 * x)
        return rand <= self._stored_rand % x

    def burst_size(self) -> int:
        """Burst size: ``m' = -ln(1 - f) / lambda``, f uniform (0, 1).

        ``m'`` is real-valued but blocks are whole, so we round with an
        unbiased randomized rounding (floor plus a Bernoulli on the
        fractional part). This preserves the paper's stated property that
        "the mean value of m' is 1/lambda" exactly — plain ceil would
        inflate the mean to ~1.58/lambda.
        """
        m_prime = self._rng.exponential(self.config.dummy_rate)
        base = math.floor(m_prime)
        if self._rng.random() < (m_prime - base):
            base += 1
        return base

    def target_volume(self) -> int:
        """Volume the burst is scattered to: ``(stored_rand mod (n-1)) + 2``."""
        return derive_dummy_volume_index(self._stored_rand, self.config.num_volumes)

    # -- noise generation -----------------------------------------------------------

    def make_noise(self, nbytes: int) -> bytes:
        """Random noise indistinguishable from the encrypted hidden data.

        The prototype fills dummy blocks with ``get_random_bytes()``; we
        charge the kernel-PRNG cost to the simulated clock and draw from
        the seeded RNG so experiments stay reproducible.
        """
        if self._noise_byte_cost_s:
            self._clock.advance(nbytes * self._noise_byte_cost_s, "pde.noise")
        return self._rng.random_bytes(nbytes)

    # -- pool hook ---------------------------------------------------------------------

    def on_provision(self, pool: ThinPool, vol_id: int) -> None:
        """Called by the pool after each real provisioning write."""
        if not self.config.dummy_writes_enabled:
            return
        if not self.should_fire():
            return
        self.stats.fired += 1
        m = self.burst_size()
        target = self.target_volume()
        with obs.span("pde.dummy.burst", clock=self._clock, blocks=m):
            for _ in range(m):
                if pool.free_data_blocks == 0:
                    return
                obs.mark("pde.dummy.burst-block")
                written = pool.append_noise(
                    target, self.make_noise(pool.block_size), self._rng
                )
                if written is None:
                    return
                self.stats.blocks_written += 1
