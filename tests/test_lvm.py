"""Tests for the LVM substrate."""

import pytest

from repro.blockdev import RAMBlockDevice
from repro.errors import LVMError
from repro.lvm import VolumeGroup


class TestVolumeGroup:
    def test_pv_extents(self):
        vg = VolumeGroup("vg", extent_blocks=8)
        vg.add_pv("pv0", RAMBlockDevice(100))
        assert vg.total_extents == 12  # 100 // 8
        assert vg.free_extents == 12

    def test_duplicate_pv_rejected(self):
        vg = VolumeGroup("vg", extent_blocks=8)
        vg.add_pv("pv0", RAMBlockDevice(64))
        with pytest.raises(LVMError):
            vg.add_pv("pv0", RAMBlockDevice(64))

    def test_pv_too_small(self):
        vg = VolumeGroup("vg", extent_blocks=64)
        with pytest.raises(LVMError):
            vg.add_pv("tiny", RAMBlockDevice(32))

    def test_lv_rounds_up_to_extents(self):
        vg = VolumeGroup("vg", extent_blocks=8)
        vg.add_pv("pv0", RAMBlockDevice(64))
        lv = vg.create_lv("lv0", 10)
        assert len(lv.extents) == 2
        assert lv.num_blocks == 16

    def test_lv_exhaustion(self):
        vg = VolumeGroup("vg", extent_blocks=8)
        vg.add_pv("pv0", RAMBlockDevice(16))
        vg.create_lv("lv0", 16)
        with pytest.raises(LVMError):
            vg.create_lv("lv1", 1)

    def test_duplicate_lv_rejected(self):
        vg = VolumeGroup("vg", extent_blocks=8)
        vg.add_pv("pv0", RAMBlockDevice(64))
        vg.create_lv("lv0", 8)
        with pytest.raises(LVMError):
            vg.create_lv("lv0", 8)

    def test_invalid_lv_size(self):
        vg = VolumeGroup("vg", extent_blocks=8)
        vg.add_pv("pv0", RAMBlockDevice(64))
        with pytest.raises(LVMError):
            vg.create_lv("lv0", 0)

    def test_lv_device_io(self):
        base = RAMBlockDevice(64)
        vg = VolumeGroup("vg", extent_blocks=8)
        vg.add_pv("pv0", base)
        vg.create_lv("a", 8)
        lv = vg.create_lv("b", 16)
        dev = lv.open()
        assert dev.num_blocks == 16
        dev.write_block(0, b"\x11" * 4096)
        # LV "b" starts after "a"'s extent: base block 8
        assert base.read_block(8) == b"\x11" * 4096

    def test_lvs_do_not_overlap(self):
        base = RAMBlockDevice(64)
        vg = VolumeGroup("vg", extent_blocks=8)
        vg.add_pv("pv0", base)
        a = vg.create_lv("a", 24).open()
        b = vg.create_lv("b", 24).open()
        for i in range(24):
            a.write_block(i, b"\xaa" * 4096)
            b.write_block(i, b"\xbb" * 4096)
        for i in range(24):
            assert a.read_block(i) == b"\xaa" * 4096
            assert b.read_block(i) == b"\xbb" * 4096

    def test_multi_pv_spanning(self):
        vg = VolumeGroup("vg", extent_blocks=8)
        vg.add_pv("pv0", RAMBlockDevice(16))
        vg.add_pv("pv1", RAMBlockDevice(16))
        lv = vg.create_lv("big", 32)
        dev = lv.open()
        for i in range(32):
            dev.write_block(i, bytes([i]) * 4096)
        for i in range(32):
            assert dev.read_block(i) == bytes([i]) * 4096

    def test_report(self):
        vg = VolumeGroup("vg", extent_blocks=8)
        vg.add_pv("pv0", RAMBlockDevice(64))
        vg.create_lv("lv0", 8)
        report = vg.report()
        assert "VG vg" in report and "LV lv0" in report


@pytest.mark.xfail(
    strict=True,
    reason="LogicalVolume.open() maps one linear segment per extent and a "
    "dm flush visits every segment, so the data LV flushes the eMMC once "
    "per extent (62 times here); lvcreate would map one merged segment",
)
def test_pool_flush_reaches_the_emmc_once_per_lv_flush():
    """On an mc-p stack, ``pool.flush()`` flushes the data LV once and the
    metadata LV at the commit's two barriers; each should cost one eMMC
    flush (60 µs on the Nexus 4 profile), not one per LV extent."""
    from repro.bench.stacks import build_fig4_stack

    stack = build_fig4_stack("mc-p", seed=0, userdata_blocks=16384)
    pool = stack.system.pool
    devices = (stack.phone.userdata, pool.data_device, pool._store.device)
    before = [device.stats.flushes for device in devices]
    pool.flush()
    emmc, data_lv, meta_lv = (
        device.stats.flushes - b for device, b in zip(devices, before)
    )
    assert (data_lv, meta_lv) == (1, 2)
    assert emmc == data_lv + meta_lv
