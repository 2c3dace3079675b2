"""Simulated eMMC storage.

The real MobiCeal prototype runs over the Nexus 4's internal eMMC, which the
kernel sees as a plain block device behind the flash translation layer. Our
simulator therefore models the *block-device view*: a RAM-backed store whose
operations advance a shared :class:`~repro.blockdev.clock.SimClock` by the
costs of a calibrated :class:`~repro.blockdev.latency.LatencyModel`, with
sequential-access detection (the FTL and on-die caches make sequential I/O
much cheaper than scattered I/O, which is exactly the property the paper's
random-allocation discussion cares about).
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.blockdev.clock import SimClock
from repro.blockdev.device import DEFAULT_BLOCK_SIZE, ExtentCosts, RAMBlockDevice
from repro.blockdev.latency import FREE, LatencyModel
from repro.blockdev.store import CowOverlayStore
from repro.crypto.rng import Rng


class EMMCDevice(RAMBlockDevice):
    """Store-backed block device with a latency model and a simulated clock.

    As the leaf of every stack it replays the upper layers'
    :class:`~repro.blockdev.device.ExtentCosts` schedule serially, one
    block at a time, interleaved with its own latency charge (see
    :meth:`_charge`).
    """

    def __init__(
        self,
        num_blocks: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        clock: Optional[SimClock] = None,
        latency: LatencyModel = FREE,
        fill: int = 0,
        jitter: float = 0.0,
        jitter_rng: Optional[Rng] = None,
        store: Optional[CowOverlayStore] = None,
    ) -> None:
        super().__init__(num_blocks, block_size, fill=fill, store=store)
        self.clock = clock if clock is not None else SimClock()
        self.latency = latency
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self._jitter = jitter
        self._jitter_rng = jitter_rng if jitter_rng is not None else Rng(0)
        self._last_read_end: Optional[int] = None
        self._last_write_end: Optional[int] = None

    def _read_extent(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        sequential = self._last_read_end == start
        self._last_read_end = start + count
        bs = self._block_size
        self._charge(
            count,
            self.latency.read_cost(bs, sequential),
            self.latency.read_cost(bs, True),
            costs,
            "emmc.read",
        )
        return self._store.read_extent(start, count)

    def _write_extent(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        bs = self._block_size
        count = len(data) // bs
        sequential = self._last_write_end == start
        self._last_write_end = start + count
        self._charge(
            count,
            self.latency.write_cost(bs, sequential),
            self.latency.write_cost(bs, True),
            costs,
            "emmc.write",
        )
        self._store.write_extent(start, data)

    def _charge(
        self,
        count: int,
        first: float,
        rest: float,
        costs: Optional[ExtentCosts],
        name: str,
    ) -> None:
        """Charge an extent's latency block by block, replaying *costs*.

        Per block, in order: the schedule's pre charges and calls, this
        device's own latency charge, its latency observation, then the
        schedule's post charges and calls — the exact sequence the
        per-block path produces, so the clock matches it bit for bit
        (float addition order matters). *name* is both the clock reason
        and the latency histogram of the charge. Only the first block can
        pay the random-access penalty (*first*); the rest are sequential
        by construction (*rest*). Jitter is one RNG draw per block, in block
        order, applied to the hoisted cost — exactly what drawing it
        around a per-block ``*_cost`` call computes.

        The device books its own charge: the same two float additions as
        :meth:`SimClock.advance <repro.blockdev.clock.SimClock.advance>`
        (``now``, then the ``charged`` ledger), and one histogram looked
        up per extent. Jitter stays below 1, so a charge is negative only
        if its cost is; the costs are checked once, up front.
        """
        if first < 0 or (count > 1 and rest < 0):
            raise ValueError(
                "cannot advance clock by negative time: "
                f"{first if first < 0 else rest}"
            )
        clock = self.clock
        charged = clock.charged
        rec = obs.current()
        hist = rec.metrics.histogram(name) if rec is not None else None
        jitter = self._jitter
        draw = self._jitter_rng.random
        # an empty half of the schedule is skipped, not replayed per block
        pre = post = None
        if costs is not None:
            if costs.pre or costs.pre_calls:
                pre = costs.replay_pre
            if costs.post or costs.post_calls:
                post = costs.replay_post
        cost = first
        for _ in range(count):
            if pre is not None:
                pre()
            charge = cost
            if jitter:
                charge = cost * (1.0 + jitter * (2.0 * draw() - 1.0))
            clock.now += charge
            charged[name] = charged.get(name, 0.0) + charge
            if hist is not None:
                hist.observe(charge)
            if post is not None:
                post()
            cost = rest

    def _flush(self) -> None:
        # Model a cache flush as one write-op worth of latency.
        self.clock.advance(self.latency.write_op_s, "emmc.flush")
