"""Tests for the device-mapper framework and basic targets."""

import pytest

from repro.blockdev import RAMBlockDevice, SimClock
from repro.crypto import Blake2Ctr
from repro.dm import (
    CryptTarget,
    DMDevice,
    LinearTarget,
    TableEntry,
    create_crypt_device,
    single_target_device,
)
from repro.errors import TableError
from repro.util.stats import shannon_entropy

BS = 4096


def block(byte: int) -> bytes:
    return bytes([byte]) * BS


class TestTableValidation:
    def test_empty_table_rejected(self):
        with pytest.raises(TableError):
            DMDevice("d", [], BS)

    def test_gap_rejected(self):
        base = RAMBlockDevice(16)
        t1 = LinearTarget(base, 0, 4)
        t2 = LinearTarget(base, 8, 4)
        with pytest.raises(TableError):
            DMDevice("d", [TableEntry(0, 4, t1), TableEntry(6, 4, t2)], BS)

    def test_overlap_rejected(self):
        base = RAMBlockDevice(16)
        t1 = LinearTarget(base, 0, 4)
        t2 = LinearTarget(base, 8, 4)
        with pytest.raises(TableError):
            DMDevice("d", [TableEntry(0, 4, t1), TableEntry(2, 4, t2)], BS)

    def test_length_mismatch_rejected(self):
        base = RAMBlockDevice(16)
        t1 = LinearTarget(base, 0, 4)
        with pytest.raises(TableError):
            DMDevice("d", [TableEntry(0, 5, t1)], BS)

    def test_must_start_at_zero(self):
        base = RAMBlockDevice(16)
        t1 = LinearTarget(base, 0, 4)
        with pytest.raises(TableError):
            DMDevice("d", [TableEntry(2, 4, t1)], BS)

    def test_multi_segment_composition(self):
        base = RAMBlockDevice(16)
        dev = DMDevice(
            "d",
            [
                TableEntry(0, 4, LinearTarget(base, 8, 4)),
                TableEntry(4, 4, LinearTarget(base, 12, 4)),
                TableEntry(8, 4, LinearTarget(base, 0, 4)),
            ],
            BS,
        )
        assert dev.num_blocks == 12
        dev.write_block(0, block(1))  # -> base block 8
        dev.write_block(9, block(2))  # -> base block 1
        dev.write_block(5, block(3))  # -> base block 13
        assert base.read_block(8) == block(1)
        assert base.read_block(1) == block(2)
        assert base.read_block(13) == block(3)
        assert dev.read_block(5) == block(3)

    def test_flush_propagates(self):
        base = RAMBlockDevice(8)
        dev = single_target_device("d", LinearTarget(base, 0, 8))
        dev.flush()
        assert base.stats.flushes == 1


class TestLinearTarget:
    def test_bounds_validation(self):
        base = RAMBlockDevice(8)
        with pytest.raises(TableError):
            LinearTarget(base, 6, 4)

    def test_offset_mapping(self):
        base = RAMBlockDevice(8)
        target = LinearTarget(base, 2, 4)
        target.write(0, block(5))
        assert base.read_block(2) == block(5)

    def test_discard_forwards(self):
        base = RAMBlockDevice(8)
        target = LinearTarget(base, 0, 8)
        target.write(3, block(1))
        target.discard(3)
        assert base.read_block(3) == b"\x00" * BS


class TestCryptTarget:
    def test_roundtrip(self):
        base = RAMBlockDevice(8)
        dev = create_crypt_device("c", base, b"k" * 32)
        dev.write_block(3, block(0x5A))
        assert dev.read_block(3) == block(0x5A)

    def test_ciphertext_on_medium(self):
        base = RAMBlockDevice(8)
        dev = create_crypt_device("c", base, b"k" * 32)
        dev.write_block(0, block(0))
        raw = base.read_block(0)
        assert raw != block(0)
        assert shannon_entropy(raw) > 7.0

    def test_same_plaintext_different_blocks_differ(self):
        base = RAMBlockDevice(8)
        dev = create_crypt_device("c", base, b"k" * 32)
        dev.write_block(0, block(7))
        dev.write_block(1, block(7))
        assert base.read_block(0) != base.read_block(1)

    def test_wrong_key_garbage(self):
        base = RAMBlockDevice(8)
        create_crypt_device("c", base, b"a" * 32).write_block(0, block(1))
        wrong = create_crypt_device("c", base, b"b" * 32)
        assert wrong.read_block(0) != block(1)

    def test_crypto_cost_charged(self):
        clock = SimClock()
        base = RAMBlockDevice(4)
        target = CryptTarget(base, Blake2Ctr(b"k" * 32), clock=clock,
                             crypto_byte_cost_s=1e-9)
        target.write(0, block(1))
        assert clock.now == pytest.approx(BS * 1e-9)
        target.read(0)
        assert clock.now == pytest.approx(2 * BS * 1e-9)

    def test_discard_passthrough(self):
        base = RAMBlockDevice(4)
        dev = create_crypt_device("c", base, b"k" * 32)
        dev.write_block(0, block(1))
        dev.discard(0)
        assert base.read_block(0) == b"\x00" * BS
