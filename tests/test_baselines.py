"""Tests for the comparator systems: FDE, MobiPluto, HIVE ORAM, DEFY."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.android import Phone
from repro.baselines import (
    AndroidFDESystem,
    DefyDevice,
    MobiPlutoSystem,
    WriteOnlyORAMDevice,
)
from repro.blockdev import RAMBlockDevice, capture
from repro.crypto import Rng
from repro.errors import BadPasswordError, BlockDeviceError, ModeError
from repro.util.stats import shannon_entropy

BS = 4096


def block(byte: int) -> bytes:
    return bytes([byte]) * BS


class TestAndroidFDESystem:
    def test_lifecycle(self):
        phone = Phone(seed=1, userdata_blocks=2048)
        system = AndroidFDESystem(phone)
        phone.framework.power_on()
        system.initialize("pw")
        fs = system.boot_with_password("pw")
        fs.write_file("/f", b"x")
        system.reboot()
        assert system.boot_with_password("pw").read_file("/f") == b"x"

    def test_wrong_password(self):
        phone = Phone(seed=1, userdata_blocks=2048)
        system = AndroidFDESystem(phone)
        phone.framework.power_on()
        system.initialize("pw")
        with pytest.raises(BadPasswordError):
            system.boot_with_password("nope")


class TestMobiPlutoSystem:
    def make(self, seed=2, hidden="hid"):
        phone = Phone(seed=seed, userdata_blocks=4096)
        system = MobiPlutoSystem(phone)
        phone.framework.power_on()
        system.initialize("pub", hidden_password=hidden)
        return phone, system

    def test_public_and_hidden_modes(self):
        phone, system = self.make()
        system.boot_with_password("pub")
        assert system.mode == "public"
        system.start_framework()
        system.store_file("/p.txt", b"public")
        system.switch_mode("hid")
        assert system.mode == "hidden"
        system.store_file("/h.txt", b"hidden")
        system.switch_mode("pub")
        assert system.read_file("/p.txt") == b"public"
        assert not system.userdata_fs.exists("/h.txt")

    def test_wrong_password(self):
        phone, system = self.make()
        with pytest.raises(BadPasswordError):
            system.boot_with_password("wrong")

    def test_switch_requires_reboot_cost(self):
        """MobiPluto mode switching costs a full reboot (Table II ~66 s)."""
        phone, system = self.make()
        system.boot_with_password("pub")
        system.start_framework()
        t0 = phone.clock.now
        system.switch_mode("hid")
        assert phone.clock.now - t0 > 60.0

    def test_initial_fill_is_random(self):
        """The disk is filled with randomness at init (static defense)."""
        phone, system = self.make(seed=4)
        snap = capture(phone.userdata)
        # sample blocks beyond the thin pool's written region
        high_entropy = sum(
            1 for i in range(2000, 3000)
            if shannon_entropy(snap.block(i)) > 7.2
        )
        assert high_entropy > 950

    def test_no_hidden_volume_configured(self):
        phone = Phone(seed=5, userdata_blocks=4096)
        system = MobiPlutoSystem(phone)
        phone.framework.power_on()
        system.initialize("pub", hidden_password=None)
        system.boot_with_password("pub")
        assert system.mode == "public"
        with pytest.raises(BadPasswordError):
            system.switch_mode("anything")

    def test_ops_require_boot(self):
        phone, system = self.make()
        with pytest.raises(ModeError):
            system.userdata_fs

    def test_double_boot_rejected(self):
        phone, system = self.make()
        system.boot_with_password("pub")
        with pytest.raises(ModeError):
            system.boot_with_password("pub")


class TestWriteOnlyORAM:
    def make(self, logical=32, k=3, seed=0):
        backing = RAMBlockDevice(logical * 3 + 1)
        return WriteOnlyORAMDevice(
            backing, logical, key=b"k" * 32, rng=Rng(seed), k=k
        ), backing

    def test_roundtrip(self):
        oram, _ = self.make()
        oram.write_block(5, block(0xAB))
        assert oram.read_block(5) == block(0xAB)

    def test_unwritten_reads_zero(self):
        oram, _ = self.make()
        assert oram.read_block(3) == b"\x00" * BS

    def test_overwrite(self):
        oram, _ = self.make()
        oram.write_block(1, block(1))
        oram.write_block(1, block(2))
        assert oram.read_block(1) == block(2)

    def test_write_amplification(self):
        """Each logical write performs k slot writes + 1 map write."""
        oram, _ = self.make(k=3)
        for i in range(20):
            oram.write_block(i % 8, block(i))
        assert oram.stats_physical_writes == 20 * 4
        assert oram.stats_physical_reads >= 20 * 3

    def test_medium_never_shows_plaintext(self):
        oram, backing = self.make(seed=3)
        marker = b"FINDME__" * 512
        for i in range(10):
            oram.write_block(i, marker)
        for b in range(backing.num_blocks):
            assert marker[:64] not in backing.read_block(b)

    def test_all_k_candidate_slots_change(self):
        """Obliviousness: every drawn slot's content changes on a write."""
        oram, backing = self.make(seed=7)
        for i in range(16):
            oram.write_block(i, block(i))
        before = capture(backing)
        oram.write_block(0, block(0xFF))
        after = capture(backing)
        changed = [
            i for i in range(backing.num_blocks)
            if before.block(i) != after.block(i)
        ]
        # k slots + 1 metadata slot
        assert len(changed) == 4

    def test_stash_handles_collisions_and_drains(self):
        oram, _ = self.make(logical=16, k=2, seed=9)
        data = {}
        rng = Rng(10)
        for i in range(300):
            b = rng.randint(0, 15)
            payload = rng.random_bytes(BS)
            oram.write_block(b, payload)
            data[b] = payload
        for b, payload in data.items():
            assert oram.read_block(b) == payload

    def test_backing_too_small_rejected(self):
        with pytest.raises(BlockDeviceError):
            WriteOnlyORAMDevice(RAMBlockDevice(10), 32, key=b"k" * 32)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            WriteOnlyORAMDevice(RAMBlockDevice(100), 16, key=b"k" * 32, k=1)

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 255)),
                    min_size=1, max_size=60))
    @settings(max_examples=15, deadline=None)
    def test_oram_behaves_like_dict(self, writes):
        oram, _ = self.make(logical=16, seed=11)
        model = {}
        for index, byte in writes:
            oram.write_block(index, block(byte))
            model[index] = byte
        for index, byte in model.items():
            assert oram.read_block(index) == block(byte)


class TestDefyDevice:
    def make(self, logical=32, physical=128, seed=0):
        backing = RAMBlockDevice(physical)
        return DefyDevice(
            backing, logical, key=b"d" * 32, rng=Rng(seed)
        ), backing

    def test_roundtrip(self):
        defy, _ = self.make()
        defy.write_block(0, block(1))
        assert defy.read_block(0) == block(1)

    def test_unwritten_reads_zero(self):
        defy, _ = self.make()
        assert defy.read_block(9) == b"\x00" * BS

    def test_log_structure_appends(self):
        """Rewrites land on fresh pages; old page contents remain in the log."""
        defy, backing = self.make()
        defy.write_block(0, block(1))
        before = capture(backing)
        defy.write_block(0, block(2))
        after = capture(backing)
        changed = [
            i for i in range(backing.num_blocks)
            if before.block(i) != after.block(i)
        ]
        assert len(changed) == 2  # new data page + new metadata page
        assert defy.read_block(0) == block(2)

    def test_cleaning_triggers_under_pressure(self):
        defy, _ = self.make(logical=32, physical=80, seed=2)
        rng = Rng(3)
        data = {}
        for i in range(400):
            b = rng.randint(0, 31)
            payload = rng.random_bytes(BS)
            defy.write_block(b, payload)
            data[b] = payload
        assert defy.stats_cleanings > 0
        for b, payload in data.items():
            assert defy.read_block(b) == payload

    def test_medium_is_ciphertext(self):
        defy, backing = self.make(seed=4)
        marker = b"DEFYSECRET" * 410
        defy.write_block(0, marker[:BS])
        for i in range(backing.num_blocks):
            assert b"DEFYSECRET" not in backing.read_block(i)

    def test_insufficient_spare_rejected(self):
        with pytest.raises(BlockDeviceError):
            DefyDevice(RAMBlockDevice(32), 20, key=b"d" * 32)
