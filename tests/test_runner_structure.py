"""Structural tests for the Table II runner and misc coverage fillers."""

import pytest

from repro.android import Phone
from repro.baselines import AndroidFDESystem
from repro.bench import run_table2
from repro.blockdev import RAMBlockDevice
from repro.crypto import Rng
from repro.dm.thin import ThinPool


class TestRunTable2Structure:
    @pytest.fixture(scope="class")
    def rows(self):
        # small userdata: values are wrong-scale but structure is checkable
        return run_table2(trials=2, userdata_blocks=8192, seed=1)

    def test_row_systems(self, rows):
        assert [r.system for r in rows] == [
            "Android FDE", "MobiPluto", "MobiCeal"
        ]

    def test_android_has_no_switching(self, rows):
        android = rows[0]
        assert android.switch_in is None and android.switch_out is None

    def test_summaries_have_trials(self, rows):
        for row in rows:
            assert row.initialization.n == 2
            assert row.booting.n == 2

    def test_fast_switch_beats_reboot_even_small_scale(self, rows):
        mobiceal = rows[2]
        assert mobiceal.switch_in.mean < mobiceal.switch_out.mean

    def test_boot_ordering_holds_at_any_scale(self, rows):
        android, mobipluto, mobiceal = rows
        assert android.booting.mean < mobipluto.booting.mean
        assert mobipluto.booting.mean < mobiceal.booting.mean


class TestFDESystemReboot:
    def test_reboot_unmounts(self):
        phone = Phone(seed=1, userdata_blocks=2048)
        system = AndroidFDESystem(phone)
        phone.framework.power_on()
        system.initialize("pw")
        system.boot_with_password("pw")
        assert system.userdata_fs is not None
        system.reboot()
        assert system.userdata_fs is None
        system.boot_with_password("pw")


class TestThinTargetOps:
    def test_discard_and_flush_through_target(self):
        md, dd = RAMBlockDevice(16), RAMBlockDevice(64)
        pool = ThinPool.format(md, dd, rng=Rng(0))
        pool.create_thin(1, 32)
        target = pool.get_thin(1)
        target.write_block(3, b"\x09" * 4096)
        assert target.read_block(3) == b"\x09" * 4096
        target.discard(3)
        assert target.read_block(3) == b"\x00" * 4096
        target.flush()
        # flush committed the metadata: a reopened pool sees the discard
        pool2 = ThinPool.open(md, dd, rng=Rng(1))
        assert pool2.volume_record(1).provisioned_blocks == 0


class TestPhoneDefaults:
    def test_small_default_userdata(self):
        from repro.android.phone import SMALL_USERDATA_BLOCKS

        phone = Phone(seed=0)
        assert phone.userdata.num_blocks == SMALL_USERDATA_BLOCKS
        assert phone.userdata_blocks == SMALL_USERDATA_BLOCKS

    def test_log_partitions_exist(self):
        phone = Phone(seed=0)
        assert phone.cache_dev.num_blocks > 0
        assert phone.devlog_dev.num_blocks > 0
        # all devices share the phone's clock
        assert phone.cache_dev.clock is phone.clock
        assert phone.devlog_dev.clock is phone.clock

    def test_large_userdata_is_sparse_automatically(self):
        phone = Phone(seed=0, userdata_blocks=100_000)
        assert phone.userdata.sparse

    def test_small_userdata_is_dense(self):
        phone = Phone(seed=0, userdata_blocks=4096)
        assert not phone.userdata.sparse

    def test_jitter_validation(self):
        from repro.blockdev import EMMCDevice

        with pytest.raises(ValueError):
            EMMCDevice(8, jitter=1.5)
