"""Float-determinism of the serial cost replay at the leaf device.

Upper layers hand the eMMC leaf an ``ExtentCosts`` schedule, and the leaf
replays it once per block around its own (possibly jittered) latency
charge. That must land every simulated-clock reading, every RNG draw and
every latency histogram on *exactly* the values the block-at-a-time path
(the :func:`~tests.oracles.per_block.per_block_baseline` oracle)
produces — IEEE-754 addition is not associative, so any reordering shows
up in the low bits. These tests check that over randomized schedules.

Nothing here uses approximate comparison: every assertion is ``==`` on
floats. A failure means the replay changed summation order.
"""

import random

from repro import obs
from repro.blockdev import EMMCDevice, LatencyModel, SimClock
from repro.blockdev.device import ExtentCosts
from repro.crypto.rng import Rng
from tests.oracles.per_block import per_block_baseline

#: Charge magnitudes spanning the scales the latency models emit, chosen
#: to provoke rounding differences if the fold order ever changes
#: (microseconds next to hundreds of seconds do not associate).
_SCALES = (1e-9, 1e-6, 1e-3, 1.0, 1e3)


# ---------------------------------------------------------------------------
# eMMC jittered extents vs the per-block oracle
# ---------------------------------------------------------------------------


def _jittered_extent_run(seed: int, per_block: bool):
    """Random extents with random cost schedules on a jittered eMMC."""
    rng = random.Random(seed)
    ticks = {"pre": 0, "post": 0}
    clock, other = SimClock(), SimClock()
    dev = EMMCDevice(
        256, clock=clock, latency=LatencyModel(),
        jitter=0.3 if seed % 5 else 0.0, jitter_rng=Rng(seed),
    )

    def schedule():
        costs = ExtentCosts()
        for _ in range(rng.randint(0, 3)):
            costs.add_pre(rng.choice((clock, other)),
                          rng.random() * rng.choice(_SCALES), "thin.lookup")
        for _ in range(rng.randint(0, 3)):
            costs.add_post(rng.choice((clock, other)),
                           rng.random() * rng.choice(_SCALES), "crypt.cpu")
        costs.add_pre_call(lambda: ticks.__setitem__("pre", ticks["pre"] + 1))
        costs.add_post_call(
            lambda: ticks.__setitem__("post", ticks["post"] + 1)
        )
        return costs

    with obs.observe() as rec:
        for _ in range(12):
            start = rng.randrange(0, 200)
            count = rng.randint(1, 48)
            costs = schedule() if rng.random() < 0.75 else None
            if per_block:
                with per_block_baseline():
                    if rng.random() < 0.5:
                        dev.write_blocks(start, bytes(count * dev.block_size),
                                         costs)
                    else:
                        dev.read_blocks(start, count, costs)
            elif rng.random() < 0.5:
                dev.write_blocks(start, bytes(count * dev.block_size), costs)
            else:
                dev.read_blocks(start, count, costs)
    histograms = {
        name: (h.count, h.total, h.bucket_counts(), h.minimum, h.maximum)
        for name, h in rec.metrics.histograms.items()
    }
    assert set(histograms) == {"emmc.read", "emmc.write"}
    for name, (_, total, *_) in histograms.items():
        # the histograms record exactly what the clock booked to the
        # device's reason, summed in the same order
        assert total == clock.charged[name], name
    return (
        clock.now,
        other.now,
        clock.charged,
        other.charged,
        dev._jitter_rng.random(),  # the next draw pins the stream position
        histograms,
        ticks,
        dev.stats.as_dict(),
    )


def test_jittered_extent_costs_bit_identical():
    """Extent replay == per-block oracle: clocks, RNG, histograms, exactly.

    Whole extents (mostly jittered), each with a random schedule of
    pre/post charges on two clocks plus counter callbacks, replayed by
    the eMMC leaf must match :func:`per_block_baseline` on both clocks'
    bits and per-reason ledgers, the jitter RNG's stream position, and the
    ``emmc.read``/``emmc.write`` latency histograms (count, float total,
    buckets, extremes), which must hold exactly what was charged.
    """
    for seed in range(25):
        extent = _jittered_extent_run(seed, per_block=False)
        assert extent == _jittered_extent_run(seed, per_block=True), seed
