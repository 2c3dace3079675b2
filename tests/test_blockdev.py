"""Tests for the block-device substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockdev import (
    EMMCDevice,
    LatencyModel,
    RAMBlockDevice,
    SimClock,
    Stopwatch,
    SubDevice,
    capture,
    diff,
    restore,
)
from repro.blockdev.bulk import bulk_pass, sequential_pass_cost
from repro.blockdev.latency import FREE
from repro.blockdev.store import SPARSE_THRESHOLD, CowOverlayStore
from repro.errors import (
    BadBlockSizeError,
    DeviceClosedError,
    OutOfRangeError,
)
from tests.oracles.flat_store import FlatStore
from tests.oracles.per_block import per_block_baseline

BS = 4096


def block(byte: int) -> bytes:
    return bytes([byte]) * BS


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5, "workload.idle")
        clock.advance(0.5, "workload.idle")
        assert clock.now == 2.0

    def test_ledger_books_each_charge_by_reason(self):
        clock = SimClock()
        clock.advance(1.5, "emmc.write")
        clock.advance(0.25, "crypt.cpu")
        clock.advance(0.5, "emmc.write")
        assert clock.charged == {"emmc.write": 2.0, "crypt.cpu": 0.25}
        assert clock.now == 2.25

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1, "workload.idle")

    def test_stopwatch(self):
        clock = SimClock()
        with Stopwatch(clock) as sw:
            clock.advance(3.0, "workload.idle")
        assert sw.elapsed == 3.0


class TestRAMBlockDevice:
    def test_fresh_reads_zero(self):
        dev = RAMBlockDevice(4)
        assert dev.read_block(0) == b"\x00" * BS

    def test_write_read_roundtrip(self):
        dev = RAMBlockDevice(4)
        dev.write_block(2, block(0xAB))
        assert dev.read_block(2) == block(0xAB)

    def test_fill_byte(self):
        dev = RAMBlockDevice(2, fill=0xFF)
        assert dev.read_block(1) == b"\xff" * BS

    def test_out_of_range(self):
        dev = RAMBlockDevice(4)
        with pytest.raises(OutOfRangeError):
            dev.read_block(4)
        with pytest.raises(OutOfRangeError):
            dev.write_block(-1, block(0))

    def test_bad_block_size(self):
        dev = RAMBlockDevice(4)
        with pytest.raises(BadBlockSizeError):
            dev.write_block(0, b"short")

    def test_geometry(self):
        dev = RAMBlockDevice(8, block_size=512)
        assert dev.num_blocks == 8
        assert dev.block_size == 512
        assert dev.size_bytes == 4096

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            RAMBlockDevice(0)
        with pytest.raises(ValueError):
            RAMBlockDevice(4, block_size=100)

    def test_stats_counting(self):
        dev = RAMBlockDevice(4)
        dev.write_block(0, block(1))
        dev.read_block(0)
        dev.read_block(1)
        dev.flush()
        assert dev.stats.writes == 1
        assert dev.stats.reads == 2
        assert dev.stats.flushes == 1
        assert dev.stats.bytes_written == BS
        assert dev.stats.bytes_read == 2 * BS

    def test_stats_delta(self):
        dev = RAMBlockDevice(4)
        dev.write_block(0, block(1))
        before = dev.stats.snapshot()
        dev.write_block(1, block(2))
        delta = dev.stats.delta(before)
        assert delta.writes == 1

    def test_close(self):
        dev = RAMBlockDevice(4)
        dev.close()
        with pytest.raises(DeviceClosedError):
            dev.read_block(0)
        with pytest.raises(DeviceClosedError):
            dev.flush()

    def test_discard_zeroes(self):
        dev = RAMBlockDevice(4)
        dev.write_block(0, block(7))
        dev.discard(0)
        assert dev.read_block(0) == b"\x00" * BS
        assert dev.stats.discards == 1

    def test_bulk_read_write(self):
        dev = RAMBlockDevice(8)
        dev.write_blocks(2, block(1) + block(2))
        assert dev.read_blocks(2, 2) == block(1) + block(2)

    def test_write_blocks_bad_size(self):
        dev = RAMBlockDevice(8)
        with pytest.raises(BadBlockSizeError):
            dev.write_blocks(0, b"xyz")

    def test_raw_bytes_roundtrip(self):
        dev = RAMBlockDevice(2)
        dev.write_block(0, block(9))
        dev2 = RAMBlockDevice(2)
        restore(dev2, capture(dev))
        assert dev2.read_block(0) == block(9)
        assert dev2.store.digest() == dev.store.digest()

    def test_restore_size_check(self):
        with pytest.raises(ValueError):
            restore(RAMBlockDevice(2), capture(RAMBlockDevice(3)))

    def test_peek_poke_bypass_stats(self):
        dev = RAMBlockDevice(4)
        dev.poke(1, block(5))
        assert dev.peek(1) == block(5)
        assert dev.stats.reads == 0
        assert dev.stats.writes == 0


class TestSparseRAMDevice:
    def test_sparse_semantics_match_dense(self):
        dense = RAMBlockDevice(16, store=FlatStore(16, BS))
        sparse = RAMBlockDevice(16)
        for dev in (dense, sparse):
            dev.write_block(3, block(3))
            dev.write_block(9, block(9))
            dev.discard(3)
        for i in range(16):
            assert dense.read_block(i) == sparse.read_block(i)

    def test_sparse_is_a_size_rule_on_one_store(self):
        # the size only tells bulk passes whether to materialize content;
        # every device keeps its bytes in the same copy-on-write store
        at = RAMBlockDevice(SPARSE_THRESHOLD)
        above = RAMBlockDevice(SPARSE_THRESHOLD + 1)
        assert not at.sparse and above.sparse
        assert type(at.store) is type(above.store) is CowOverlayStore

    def test_huge_device_cheap(self):
        dev = RAMBlockDevice(10_000_000)
        dev.write_block(9_999_999, block(1))
        assert dev.read_block(9_999_999) == block(1)
        assert dev.read_block(123) == b"\x00" * BS


class TestSubDevice:
    def test_window_mapping(self):
        base = RAMBlockDevice(10)
        sub = SubDevice(base, 3, 4)
        sub.write_block(0, block(1))
        assert base.read_block(3) == block(1)
        assert sub.num_blocks == 4

    def test_out_of_window(self):
        base = RAMBlockDevice(10)
        sub = SubDevice(base, 3, 4)
        with pytest.raises(OutOfRangeError):
            sub.read_block(4)

    def test_invalid_window(self):
        base = RAMBlockDevice(10)
        with pytest.raises(ValueError):
            SubDevice(base, 8, 4)

    def test_discard_and_flush_forward(self):
        base = RAMBlockDevice(10)
        sub = SubDevice(base, 0, 5)
        sub.write_block(1, block(2))
        sub.discard(1)
        sub.flush()
        assert base.read_block(1) == b"\x00" * BS
        assert base.stats.flushes == 1


class TestEMMCDevice:
    def test_clock_advances_on_io(self):
        clock = SimClock()
        dev = EMMCDevice(8, clock=clock, latency=LatencyModel())
        dev.write_block(0, block(1))
        after_write = clock.now
        assert after_write > 0
        dev.read_block(0)
        assert clock.now > after_write

    def test_sequential_cheaper_than_random(self):
        model = LatencyModel()
        clock_seq = SimClock()
        dev = EMMCDevice(64, clock=clock_seq, latency=model)
        for i in range(32):
            dev.write_block(i, block(1))
        clock_rand = SimClock()
        dev2 = EMMCDevice(64, clock=clock_rand, latency=model)
        for i in range(0, 64, 2):
            dev2.write_block(i, block(1))
        assert clock_seq.now < clock_rand.now

    def test_free_latency_has_no_cost(self):
        clock = SimClock()
        dev = EMMCDevice(8, clock=clock, latency=FREE)
        dev.write_block(0, block(1))
        assert clock.now == 0.0

    def test_peek_does_not_advance_clock(self):
        clock = SimClock()
        dev = EMMCDevice(8, clock=clock, latency=LatencyModel())
        dev.write_block(0, block(1))
        t = clock.now
        dev.peek(0)
        dev.poke(1, block(2))
        assert clock.now == t


class TestLatencyModel:
    def test_bandwidth_properties(self):
        model = LatencyModel()
        assert model.sequential_read_bandwidth == pytest.approx(1.0 / model.read_byte_s)
        assert model.sequential_write_bandwidth == pytest.approx(
            1.0 / model.write_byte_s
        )

    def test_random_penalty_applied(self):
        model = LatencyModel()
        assert model.read_cost(4096, sequential=False) > model.read_cost(
            4096, sequential=True
        )


class TestSnapshots:
    def test_capture_and_diff(self):
        dev = RAMBlockDevice(8)
        s1 = capture(dev, "before")
        dev.write_block(2, block(1))
        dev.write_block(5, block(2))
        s2 = capture(dev, "after")
        d = diff(s1, s2)
        assert d.changed_blocks == (2, 5)
        assert d.num_changed == 2

    def test_diff_geometry_mismatch(self):
        a = capture(RAMBlockDevice(4))
        b = capture(RAMBlockDevice(8))
        with pytest.raises(ValueError):
            diff(a, b)

    def test_runs_detection(self):
        dev = RAMBlockDevice(16)
        s1 = capture(dev)
        for i in (1, 2, 3, 7, 10, 11):
            dev.write_block(i, block(1))
        d = diff(s1, capture(dev))
        assert d.runs() == [(1, 3), (7, 1), (10, 2)]
        assert d.longest_run() == 3

    def test_restore(self):
        dev = RAMBlockDevice(4)
        dev.write_block(0, block(9))
        snap = capture(dev)
        dev.write_block(0, block(1))
        restore(dev, snap)
        assert dev.read_block(0) == block(9)

    def test_digest_stable(self):
        dev = RAMBlockDevice(4)
        assert capture(dev).manifest_digest() == \
            capture(dev).manifest_digest()
        dev.write_block(0, block(1))
        assert capture(dev).manifest_digest() != \
            capture(RAMBlockDevice(4)).manifest_digest()


class TestBulkPass:
    def test_cost_formula(self):
        model = LatencyModel()
        cost = sequential_pass_cost(model, 10, 4096, read=True, write=False)
        expected = 10 * model.read_cost(4096, sequential=True)
        assert cost == pytest.approx(expected)

    def test_extra_byte_cost(self):
        model = LatencyModel()
        base = sequential_pass_cost(model, 10, 4096, read=False, write=True)
        extra = sequential_pass_cost(
            model, 10, 4096, read=False, write=True, extra_byte_cost_s=1e-6
        )
        assert extra == pytest.approx(base + 10 * 4096 * 1e-6)

    def test_materialize_requires_content(self):
        clock = SimClock()
        dev = RAMBlockDevice(4)
        with pytest.raises(ValueError):
            bulk_pass(dev, clock, LatencyModel(), read=False, write=True,
                      reason="android.fde_encrypt", materialize=True)

    def test_materialize_writes_content(self):
        clock = SimClock()
        dev = RAMBlockDevice(4)
        bulk_pass(
            dev, clock, LatencyModel(), read=False, write=True,
            reason="android.fde_encrypt", materialize=True,
            content=lambda b: block(b),
        )
        assert dev.read_block(3) == block(3)
        assert clock.now > 0
        assert dev.stats.writes == 0  # out-of-band


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 255)),
        min_size=1,
        max_size=40,
    )
)
def test_device_behaves_like_dict_model(ops):
    """Property: a block device is an array of blocks; reads see last write."""
    dev = RAMBlockDevice(16)
    model = {}
    for index, byte in ops:
        dev.write_block(index, block(byte))
        model[index] = byte
    for index in range(16):
        expected = block(model[index]) if index in model else b"\x00" * BS
        assert dev.read_block(index) == expected


class TestExtentPath:
    """Vectored read_blocks/write_blocks and the per-block baseline."""

    def test_discard_restores_fill_pattern(self):
        # regression: the dense fast path used to zero instead of refilling
        for make in (CowOverlayStore, FlatStore):
            store = make(4, BS, fill=0xAB)
            dev = RAMBlockDevice(4, fill=0xAB, store=store)
            dev.write_block(1, block(7))
            dev.discard(1)
            assert dev.read_block(1) == b"\xab" * BS

    def test_extent_roundtrip_matches_per_block(self):
        dev = RAMBlockDevice(8, fill=0x11)
        dev.write_blocks(2, block(1) + block(2) + block(3))
        assert dev.read_blocks(0, 8) == b"".join(
            dev.peek(i) for i in range(8)
        )

    def test_extent_out_of_range(self):
        dev = RAMBlockDevice(4)
        with pytest.raises(OutOfRangeError):
            dev.read_blocks(2, 3)
        with pytest.raises(OutOfRangeError):
            dev.read_blocks(-1, 2)
        with pytest.raises(OutOfRangeError):
            dev.write_blocks(3, block(0) * 2)

    def test_extent_stats_count_per_block(self):
        dev = RAMBlockDevice(8)
        dev.write_blocks(0, block(1) * 5)
        dev.read_blocks(1, 3)
        assert dev.stats.writes == 5
        assert dev.stats.reads == 3
        assert dev.stats.bytes_written == 5 * BS
        assert dev.stats.bytes_read == 3 * BS

    def test_peek_poke_extent_bypass_stats(self):
        dev = RAMBlockDevice(4)
        dev.poke_extent(1, block(5) + block(6))
        assert dev.peek_extent(1, 2) == block(5) + block(6)
        assert dev.stats.reads == 0
        assert dev.stats.writes == 0

    def test_per_block_baseline_same_result(self):
        dev = EMMCDevice(16, clock=SimClock(), latency=LatencyModel())
        dev.write_blocks(0, block(9) * 8)
        fast = dev.read_blocks(0, 8)
        with per_block_baseline():
            slow = dev.read_blocks(0, 8)
        assert fast == slow

    def test_subdevice_extent_maps_window(self):
        base = RAMBlockDevice(10)
        sub = SubDevice(base, 4, 4)
        sub.write_blocks(1, block(3) + block(4))
        assert base.peek(5) == block(3)
        assert base.peek(6) == block(4)
        assert sub.read_blocks(1, 2) == block(3) + block(4)
