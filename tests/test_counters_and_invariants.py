"""Cross-cutting counter and bookkeeping invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockdev import RAMBlockDevice
from repro.crypto import Rng
from repro.dm.thin import ThinPool
from repro.errors import PoolExhaustedError

BS = 4096


def block(byte: int) -> bytes:
    return bytes([byte]) * BS


def fresh_pool(data_blocks=128, seed=0, allocation="random"):
    md = RAMBlockDevice(16)
    dd = RAMBlockDevice(data_blocks)
    pool = ThinPool.format(md, dd, allocation=allocation, rng=Rng(seed))
    return pool


class TestPoolStats:
    def test_counters_track_operations(self):
        pool = fresh_pool()
        pool.create_thin(1, 64)
        thin = pool.get_thin(1)
        thin.write_block(0, block(1))   # provision + write
        thin.write_block(0, block(2))   # rewrite
        thin.read_block(0)              # mapped read
        thin.read_block(5)              # unmapped read
        thin.discard(0)
        pool.commit()
        assert pool.stats.provisions == 1
        assert pool.stats.real_writes == 2
        assert pool.stats.reads_mapped == 1
        assert pool.stats.reads_unmapped == 1
        assert pool.stats.discards == 1
        assert pool.stats.commits >= 1

    def test_dummy_counters_consistent(self):
        pool = fresh_pool(seed=3)
        pool.create_thin(1, 64)
        pool.create_thin(2, 64)
        rng = Rng(1)
        pool.set_dummy_write_hook(
            lambda p, v: p.append_noise(2, rng.random_bytes(BS), rng)
        )
        thin = pool.get_thin(1)
        for i in range(10):
            thin.write_block(i, block(i))
        assert pool.stats.dummy_bursts == 10
        assert pool.stats.dummy_blocks == 10
        assert pool.volume_record(2).provisioned_blocks == 10


class TestBitmapAllocatorAgreement:
    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["write", "discard", "noise", "trim_vol"]),
                st.integers(1, 3),
                st.integers(0, 31),
            ),
            max_size=60,
        ),
        seed=st.integers(0, 1000),
    )
    def test_bitmap_matches_mappings_and_allocator(self, ops, seed):
        """After any op sequence: bitmap count == total mappings, and the
        allocator's free count complements it."""
        pool = fresh_pool(data_blocks=96, seed=seed)
        alive = set()
        rng = Rng(seed + 1)
        for op, vol, vblock in ops:
            if vol not in alive:
                pool.create_thin(vol, 32)
                alive.add(vol)
            try:
                if op == "write":
                    pool.get_thin(vol).write_block(vblock, block(vblock))
                elif op == "discard":
                    pool.get_thin(vol).discard(vblock)
                elif op == "noise":
                    pool.append_noise(vol, rng.random_bytes(BS), rng)
                elif op == "trim_vol":
                    thin = pool.get_thin(vol)
                    for mapped in list(pool.volume_record(vol).mappings):
                        thin.discard(mapped)
            except PoolExhaustedError:
                break
        total_mapped = sum(
            pool.volume_record(v).provisioned_blocks for v in pool.volume_ids()
        )
        assert pool.metadata.bitmap.allocated_count == total_mapped
        assert pool.free_data_blocks == pool.num_data_blocks - total_mapped

    def test_agreement_survives_commit_reload(self):
        md = RAMBlockDevice(16)
        dd = RAMBlockDevice(96)
        pool = ThinPool.format(md, dd, rng=Rng(7))
        pool.create_thin(1, 64)
        thin = pool.get_thin(1)
        for i in range(20):
            thin.write_block(i, block(i))
        for i in range(0, 20, 2):
            thin.discard(i)
        pool.commit()
        reloaded = ThinPool.open(md, dd, rng=Rng(8))
        assert reloaded.metadata.bitmap.allocated_count == 10
        assert reloaded.free_data_blocks == 96 - 10


class TestDeviceStatsThroughStack:
    def test_fs_write_reaches_medium_counters(self):
        from repro.dm import create_crypt_device
        from repro.fs import Ext4Filesystem

        medium = RAMBlockDevice(512)
        crypt = create_crypt_device("c", medium, key=b"k" * 32)
        fs = Ext4Filesystem(crypt)
        fs.format()
        fs.mount()
        before = medium.stats.snapshot()
        fs.write_file("/f.bin", b"x" * (10 * BS))
        fs.flush()
        delta = medium.stats.delta(before)
        assert delta.writes >= 10         # data blocks
        assert delta.bytes_written >= 10 * BS

    def test_read_counters_propagate(self):
        from repro.dm import create_crypt_device
        from repro.fs import Ext4Filesystem

        medium = RAMBlockDevice(512)
        crypt = create_crypt_device("c", medium, key=b"k" * 32)
        fs = Ext4Filesystem(crypt)
        fs.format()
        fs.mount()
        fs.write_file("/f.bin", b"x" * (10 * BS))
        fs.flush()
        before = medium.stats.snapshot()
        assert fs.read_file("/f.bin") == b"x" * (10 * BS)
        assert medium.stats.delta(before).reads >= 10


class TestGCCounters:
    def test_gc_result_consistency(self):
        from repro.core import collect_dummy_space

        pool = fresh_pool(data_blocks=256, seed=9)
        pool.create_thin(2, 256)
        rng = Rng(10)
        for _ in range(60):
            pool.append_noise(2, rng.random_bytes(BS), rng)
        free_before = pool.free_data_blocks
        result = collect_dummy_space(pool, [2], Rng(11))
        assert result.blocks_examined == 60
        assert 0 <= result.blocks_reclaimed <= 60
        assert pool.free_data_blocks == free_before + result.blocks_reclaimed
        assert pool.volume_record(2).provisioned_blocks == (
            60 - result.blocks_reclaimed
        )
