"""The short I/O path under dm-crypt, checked against references built here.

Below the crypt device an I/O passes through the data LV's dm table, its
linear target and the eMMC leaf. Each hop keeps only what changes a
simulated byte:

* a PV is an offset range on its medium, so LVs map straight onto it;
* a dm table finds a block's segment by bisection;
* ``read_blocks``/``write_blocks`` check bounds once, inline;
* the eMMC books its own latency charge into the clock and the ledger.

Every expected value below comes from a reference computed in the test
(a linear table scan, hand-laid extents, a hand-rolled clock), never
from the class under test.
"""

import random

import pytest

from repro import obs
from repro.blockdev import EMMCDevice, LatencyModel, RAMBlockDevice, SimClock
from repro.blockdev.device import ExtentCosts
from repro.crypto.rng import Rng
from repro.dm.core import DMDevice, TableEntry
from repro.dm.linear import LinearTarget
from repro.errors import (
    DeviceClosedError,
    LVMError,
    OutOfRangeError,
    TableError,
)
from repro.lvm.lvm import VolumeGroup, thin_pool_lvs
from repro.obs.metrics import Histogram
from tests.oracles.per_block import per_block_baseline

BS = 4096
FOOTER = b"\xf0" * BS


def _tagged(count: int, tag: int = 0) -> bytes:
    """*count* blocks, each holding its own index (plus *tag*)."""
    return b"".join(
        (tag + i).to_bytes(4, "little") * (BS // 4) for i in range(count)
    )


# ---------------------------------------------------------------------------
# a PV is an offset range on its medium
# ---------------------------------------------------------------------------


def test_pv_covers_the_first_blocks_of_its_device():
    vg = VolumeGroup("vg", extent_blocks=8)
    pv = vg.add_pv("pv0", RAMBlockDevice(100), 60)
    assert pv.num_extents == 7  # 60 // 8, not 100 // 8
    assert vg.total_extents == 7
    for blocks in (17, 7, 0):  # past the device, under one extent, empty
        with pytest.raises(LVMError):
            VolumeGroup("vg", extent_blocks=8).add_pv(
                "pv0", RAMBlockDevice(16), blocks
            )


def test_lv_blocks_map_straight_onto_the_medium():
    """Each LV block lands at its extent's medium offset, in one write
    that crosses every segment boundary; nothing past the PV is touched."""
    extent, pv_blocks = 8, 45
    medium = RAMBlockDevice(64)
    tail = range(pv_blocks, medium.num_blocks)
    for block in tail:
        medium.poke(block, FOOTER)
    vg = VolumeGroup("vg", extent_blocks=extent)
    vg.add_pv("pv0", medium, pv_blocks)
    vg.create_lv("a", 10)  # extents 0 and 1
    lv = vg.create_lv("b", 3 * extent)  # extents 2, 3 and 4
    dev = lv.open()
    assert len(dev.table) == 3
    dev.write_blocks(0, _tagged(dev.num_blocks, tag=100))
    # the reference: LV "b" starts at medium block 2 * extent, contiguously
    for offset in range(dev.num_blocks):
        assert medium.peek(2 * extent + offset) == _tagged(1, 100 + offset)
    assert dev.read_blocks(0, dev.num_blocks) == _tagged(dev.num_blocks, 100)
    for block in tail:
        assert medium.peek(block) == FOOTER
    # the LV's own stats book the I/O; the PV adds no device hop to count
    assert dev.stats.writes == dev.num_blocks
    assert medium.stats.writes == dev.num_blocks


def test_thin_pool_lvs_fill_the_area_and_spare_the_footer():
    """Filling the whole data LV writes only inside the area: the blocks
    past it (where the crypto footer lives) stay untouched."""
    area, footer_blocks = 4096, 16
    medium = RAMBlockDevice(area + footer_blocks)
    for block in range(area, medium.num_blocks):
        medium.poke(block, FOOTER)
    meta_dev, data_dev = thin_pool_lvs(medium, area, 81)
    # the reference layout: 64-block extents, metadata first (2 extents),
    # the data LV on every extent left
    extent = area // 64
    meta_extents = -(-81 // extent)
    assert meta_dev.num_blocks == meta_extents * extent
    assert data_dev.num_blocks == (area // extent - meta_extents) * extent
    assert len(data_dev.table) == 62
    data_dev.write_blocks(0, _tagged(data_dev.num_blocks))
    for offset in range(data_dev.num_blocks):
        block = meta_extents * extent + offset
        assert medium.peek(block) == _tagged(1, offset)
    for block in range(area, medium.num_blocks):
        assert medium.peek(block) == FOOTER
    meta_dev.write_blocks(0, _tagged(meta_dev.num_blocks, tag=1 << 20))
    assert medium.peek(0) == _tagged(1, 1 << 20)
    assert medium.peek(meta_extents * extent) == _tagged(1, 0)


# ---------------------------------------------------------------------------
# a dm table bisects
# ---------------------------------------------------------------------------


def _table_62():
    """62 linear segments of uneven lengths over one medium."""
    rng = random.Random(62)
    lengths = [rng.randint(1, 9) for _ in range(62)]
    medium = RAMBlockDevice(sum(lengths))
    entries, start = [], 0
    for length in lengths:
        entries.append(
            TableEntry(start, length, LinearTarget(medium, start, length))
        )
        start += length
    return entries, start


def test_lookup_matches_a_linear_scan_on_62_segments():
    entries, total = _table_62()
    # build the device from a shuffled table: it sorts at create time
    shuffled = list(entries)
    random.Random(1).shuffle(shuffled)
    dev = DMDevice("d", shuffled, BS)

    def scan(block):
        for entry in entries:
            if entry.start <= block < entry.start + entry.length:
                return entry, block - entry.start
        raise AssertionError(block)

    for block in range(total):
        assert dev._lookup(block) == scan(block), block
    for entry in entries:
        first, last = entry.start, entry.start + entry.length - 1
        assert dev._lookup(first) == (entry, 0)
        assert dev._lookup(last) == (entry, entry.length - 1)
    for block in (-1, total, total + 5):
        with pytest.raises(TableError):
            dev._lookup(block)


# ---------------------------------------------------------------------------
# one inline bounds check
# ---------------------------------------------------------------------------


def test_bounds_errors_are_unchanged():
    dev = RAMBlockDevice(8)
    for start, count, bad in ((-1, 1, -1), (7, 2, 8), (8, 1, 8), (-3, 20, -3)):
        with pytest.raises(OutOfRangeError) as exc:
            dev.read_blocks(start, count)
        assert (exc.value.block, exc.value.num_blocks) == (bad, 8)
        with pytest.raises(OutOfRangeError) as exc:
            dev.write_blocks(start, bytes(count * BS))
        assert (exc.value.block, exc.value.num_blocks) == (bad, 8)
    assert dev.stats.reads == dev.stats.writes == 0
    dev.close()
    with pytest.raises(DeviceClosedError):
        dev.read_blocks(0, 1)
    with pytest.raises(DeviceClosedError):
        dev.write_blocks(0, bytes(BS))


# ---------------------------------------------------------------------------
# the eMMC books its own charges
# ---------------------------------------------------------------------------

LATENCY = LatencyModel(name="hops-test")
JITTER = 0.3


def _costs(clock, ticks):
    costs = ExtentCosts()
    costs.add_pre(clock, 3.7e-6, "thin.lookup")
    costs.add_post(clock, 1.3e-5, "crypt.cpu")
    costs.add_post_call(lambda: ticks.append(clock.now))
    return costs


def _emmc_run(per_block: bool):
    clock, ticks = SimClock(now=12.5), []
    dev = EMMCDevice(
        64, clock=clock, latency=LATENCY, jitter=JITTER, jitter_rng=Rng(9)
    )
    with obs.observe() as rec:
        if per_block:
            with per_block_baseline():
                dev.write_blocks(5, _tagged(17), _costs(clock, ticks))
                dev.read_blocks(30, 23, _costs(clock, ticks))
        else:
            dev.write_blocks(5, _tagged(17), _costs(clock, ticks))
            dev.read_blocks(30, 23, _costs(clock, ticks))
    hists = {
        name: (h.count, h.total, h.bucket_counts(), h.minimum, h.maximum)
        for name, h in rec.metrics.histograms.items()
    }
    return clock.now, dict(clock.charged), hists, ticks


def _reference_run():
    """The same two extents charged by hand, one block at a time."""
    now, charged, hists, ticks = 12.5, {}, {}, []
    draw = Rng(9).random

    def book(seconds, reason):
        nonlocal now
        now += seconds
        charged[reason] = charged.get(reason, 0.0) + seconds

    for name, count, first, rest in (
        ("emmc.write", 17, LATENCY.write_cost(BS, False),
         LATENCY.write_cost(BS, True)),
        ("emmc.read", 23, LATENCY.read_cost(BS, False),
         LATENCY.read_cost(BS, True)),
    ):
        hist = hists.setdefault(name, Histogram(name))
        for i in range(count):
            book(3.7e-6, "thin.lookup")
            charge = (first if i == 0 else rest) * (
                1.0 + JITTER * (2.0 * draw() - 1.0)
            )
            book(charge, name)
            hist.observe(charge)
            book(1.3e-5, "crypt.cpu")
            ticks.append(now)
    return now, charged, {
        name: (h.count, h.total, h.bucket_counts(), h.minimum, h.maximum)
        for name, h in hists.items()
    }, ticks


def test_emmc_charges_whole_or_per_block_match_the_reference():
    whole = _emmc_run(per_block=False)
    assert whole == _emmc_run(per_block=True)
    assert whole == _reference_run()


def test_emmc_rejects_a_negative_cost_before_charging():
    clock = SimClock()
    dev = EMMCDevice(
        8, clock=clock, latency=LatencyModel(write_op_s=-1.0, read_op_s=1e-4)
    )
    with pytest.raises(ValueError, match="cannot advance clock by negative"):
        dev.write_blocks(0, bytes(2 * BS))
    assert clock.now == 0.0 and clock.charged == {}
    dev.read_blocks(0, 2)  # a read pays no write cost
    assert clock.charged["emmc.read"] > 0
