"""Differential tests: each shipped NumPy site against its oracle.

The thin-pool bitmap, both allocators and the wide XOR ship as one NumPy
implementation each. Their plain-Python twins live in ``tests/oracles``;
every test here builds the shipped object and the oracle from the same
inputs, drives both through the same operations, and requires the same
answers. For the allocators that includes the RNG: MobiCeal's random
allocation draws ``i`` uniform in ``[1, x]`` and takes the i-th free block
in swap-remove order, and the deniability argument rests on exactly that
draw, so the shipped allocator must leave its RNG at the same position as
the oracle after every sequence. The per-block cost oracle, which the
extent-equivalence battery runs against, gets its own self-test at the
end.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockdev import BlockDevice, EMMCDevice, LatencyModel, SimClock
from repro.crypto.rng import Rng
from repro.crypto.stream import xor_buffers
from repro.dm.thin.allocation import RandomAllocator, SequentialAllocator
from repro.dm.thin.bitmap import Bitmap
from repro.errors import PoolExhaustedError
from tests import oracles


@st.composite
def bitmaps(draw, max_size=300):
    """``(size, data)``: a persisted bitmap with its pad bits clear."""
    size = draw(st.integers(1, max_size))
    data = bytearray(draw(st.binary(min_size=(size + 7) // 8,
                                    max_size=(size + 7) // 8)))
    if size % 8:
        data[-1] &= (1 << (size % 8)) - 1
    return size, bytes(data)


# ---------------------------------------------------------------------------
# Bitmap
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(bitmap=bitmaps())
def test_bitmap_from_bytes_matches_oracle(bitmap):
    size, data = bitmap
    bm = Bitmap.from_bytes(size, data)
    assert list(bm.iter_allocated()) == list(oracles.iter_allocated(data, size))
    assert list(bm.iter_free()) == list(oracles.iter_free(data, size))
    assert bm.allocated_count == oracles.popcount(data)
    assert bm.free_count == size - oracles.popcount(data)


@settings(max_examples=100, deadline=None)
@given(bitmap=bitmaps(max_size=120), flips=st.lists(st.integers(0, 119),
                                                     max_size=60))
def test_bitmap_scans_track_single_bit_updates(bitmap, flips):
    """Bulk scans agree with the oracle after set/clear on live state."""
    size, data = bitmap
    bm = Bitmap.from_bytes(size, data)
    for index in flips:
        index %= size
        if bm.test(index):
            bm.clear(index)
        else:
            bm.set(index)
    now = bm.to_bytes()
    assert list(bm.iter_allocated()) == list(oracles.iter_allocated(now, size))
    assert list(bm.iter_free()) == list(oracles.iter_free(now, size))
    assert bm.allocated_count == oracles.popcount(now)


# ---------------------------------------------------------------------------
# Allocators
# ---------------------------------------------------------------------------

allocator_ops = st.lists(
    st.one_of(
        st.just(("allocate", 0)),
        st.tuples(st.sampled_from(["free", "mark_allocated"]),
                  st.integers(0, 10_000)),
    ),
    max_size=80,
)


def _apply(allocator, op, arg):
    """One call's observable outcome: its return value or its error type."""
    try:
        if op == "allocate":
            return allocator.allocate()
        getattr(allocator, op)(arg)
        return None
    except (PoolExhaustedError, ValueError) as exc:
        return type(exc)


def _run_pair(shipped, oracle, ops, num_blocks):
    for op, arg in ops:
        arg %= num_blocks
        assert _apply(shipped, op, arg) == _apply(oracle, op, arg), (op, arg)
        assert shipped.free_count == oracle.free_count


@st.composite
def pools(draw):
    """``(num_blocks, allocated_bitmap or None)``."""
    size, data = draw(bitmaps(max_size=96))
    return size, draw(st.one_of(st.none(), st.just(data)))


@settings(max_examples=200, deadline=None)
@given(pool=pools(), ops=allocator_ops)
def test_sequential_allocator_matches_oracle(pool, ops):
    num_blocks, bitmap = pool
    shipped = SequentialAllocator(num_blocks, allocated_bitmap=bitmap)
    oracle = oracles.SequentialAllocator(num_blocks, allocated_bitmap=bitmap)
    assert shipped.free_count == oracle.free_count
    _run_pair(shipped, oracle, ops, num_blocks)


@settings(max_examples=200, deadline=None)
@given(pool=pools(), ops=allocator_ops, seed=st.integers(0, 2**32))
def test_random_allocator_matches_oracle(pool, ops, seed):
    """Same blocks, same free counts, same RNG position afterwards."""
    num_blocks, bitmap = pool
    shipped_rng, oracle_rng = Rng(seed), Rng(seed)
    shipped = RandomAllocator(num_blocks, rng=shipped_rng,
                              allocated_bitmap=bitmap)
    oracle = oracles.RandomAllocator(num_blocks, rng=oracle_rng,
                                     allocated_bitmap=bitmap)
    assert shipped.free_count == oracle.free_count
    _run_pair(shipped, oracle, ops, num_blocks)
    assert shipped_rng.random() == oracle_rng.random()


def test_random_allocator_drains_in_oracle_order():
    """A full drain, refill and second drain: the whole draw sequence."""
    shipped = RandomAllocator(257, rng=Rng(7))
    oracle = oracles.RandomAllocator(257, rng=Rng(7))
    first = [shipped.allocate() for _ in range(257)]
    assert first == [oracle.allocate() for _ in range(257)]
    for block in first[::3]:
        shipped.free(block)
        oracle.free(block)
    second = [shipped.allocate() for _ in range(len(first[::3]))]
    assert second == [oracle.allocate() for _ in range(len(first[::3]))]
    assert sorted(second) == sorted(first[::3])


# ---------------------------------------------------------------------------
# Wide XOR
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.integers(0, 2048).flatmap(
    lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                        st.binary(min_size=n, max_size=n))))
def test_xor_buffers_matches_oracle(data):
    """uint64 lanes (lengths divisible by 8) and uint8 lanes alike."""
    a, b = data
    assert xor_buffers(a, b) == oracles.xor_bytes(a, b)


# ---------------------------------------------------------------------------
# The per-block cost oracle
# ---------------------------------------------------------------------------


class _ExtentSpy(EMMCDevice):
    """An eMMC device that records the extents reaching its write hook."""

    def __init__(self, num_blocks: int) -> None:
        super().__init__(num_blocks, clock=SimClock(), latency=LatencyModel())
        self.extents = []

    def _write_extent(self, start, data, costs):
        self.extents.append((start, len(data) // self.block_size))
        super()._write_extent(start, data, costs)


def test_per_block_baseline_splits_extents_into_single_blocks():
    dev = _ExtentSpy(8)
    with oracles.per_block_baseline():
        dev.write_blocks(2, b"\x01" * (4 * dev.block_size))
    assert dev.extents == [(2, 1), (3, 1), (4, 1), (5, 1)]
    dev.extents.clear()
    dev.write_blocks(2, b"\x02" * (4 * dev.block_size))
    assert dev.extents == [(2, 4)]


def test_per_block_baseline_restores_entry_points_on_error():
    read_blocks = BlockDevice.read_blocks
    write_blocks = BlockDevice.write_blocks
    with pytest.raises(RuntimeError):
        with oracles.per_block_baseline():
            assert BlockDevice.write_blocks is not write_blocks
            raise RuntimeError("boom")
    assert BlockDevice.read_blocks is read_blocks
    assert BlockDevice.write_blocks is write_blocks
