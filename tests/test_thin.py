"""Tests for thin provisioning: bitmap, allocators, metadata, pool, devices."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockdev import RAMBlockDevice, SimClock
from repro.crypto import Rng
from repro.dm.thin import (
    Bitmap,
    MetadataStore,
    PoolMetadata,
    RandomAllocator,
    SequentialAllocator,
    ThinCosts,
    ThinPool,
    make_allocator,
)
from repro.errors import (
    MetadataError,
    MetadataFullError,
    NoSuchVolumeError,
    PoolExhaustedError,
    VolumeExistsError,
)

BS = 4096


def block(byte: int) -> bytes:
    return bytes([byte]) * BS


def make_pool(meta_blocks=16, data_blocks=128, allocation="random", seed=0,
              clock=None, costs=ThinCosts()):
    md = RAMBlockDevice(meta_blocks)
    dd = RAMBlockDevice(data_blocks)
    pool = ThinPool.format(md, dd, allocation=allocation, rng=Rng(seed),
                           clock=clock, costs=costs)
    return pool, md, dd


class TestBitmap:
    def test_fresh_all_free(self):
        bm = Bitmap(100)
        assert bm.free_count == 100
        assert bm.allocated_count == 0
        assert not bm.test(0)

    def test_set_clear(self):
        bm = Bitmap(10)
        bm.set(3)
        assert bm.test(3)
        assert bm.allocated_count == 1
        bm.clear(3)
        assert not bm.test(3)

    def test_double_set_raises(self):
        bm = Bitmap(10)
        bm.set(3)
        with pytest.raises(ValueError):
            bm.set(3)

    def test_double_clear_raises(self):
        bm = Bitmap(10)
        with pytest.raises(ValueError):
            bm.clear(3)

    def test_out_of_range(self):
        bm = Bitmap(10)
        with pytest.raises(IndexError):
            bm.test(10)

    def test_serialization_roundtrip(self):
        bm = Bitmap(77)
        for i in (0, 5, 76):
            bm.set(i)
        loaded = Bitmap.from_bytes(77, bm.to_bytes())
        assert loaded.allocated_count == 3
        assert loaded.test(76) and loaded.test(0) and loaded.test(5)
        assert not loaded.test(6)

    def test_pad_bits_validated(self):
        raw = bytearray(Bitmap(10).to_bytes())
        raw[1] |= 0x80  # bit 15, beyond size 10
        with pytest.raises(ValueError):
            Bitmap.from_bytes(10, bytes(raw))

    def test_iterators(self):
        bm = Bitmap(8)
        bm.set(2)
        bm.set(6)
        assert list(bm.iter_allocated()) == [2, 6]
        assert list(bm.iter_free()) == [0, 1, 3, 4, 5, 7]

    def test_copy_independent(self):
        bm = Bitmap(8)
        clone = bm.copy()
        bm.set(1)
        assert not clone.test(1)

    @given(st.sets(st.integers(0, 63), max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, indices):
        bm = Bitmap(64)
        for i in indices:
            bm.set(i)
        loaded = Bitmap.from_bytes(64, bm.to_bytes())
        assert set(loaded.iter_allocated()) == indices
        assert loaded.free_count == 64 - len(indices)


class TestAllocators:
    @pytest.mark.parametrize("strategy", ["sequential", "random"])
    def test_allocates_every_block_exactly_once(self, strategy):
        alloc = make_allocator(strategy, 50, rng=Rng(0))
        blocks = [alloc.allocate() for _ in range(50)]
        assert sorted(blocks) == list(range(50))
        with pytest.raises(PoolExhaustedError):
            alloc.allocate()

    @pytest.mark.parametrize("strategy", ["sequential", "random"])
    def test_free_then_reallocate(self, strategy):
        alloc = make_allocator(strategy, 10, rng=Rng(0))
        for _ in range(10):
            alloc.allocate()
        alloc.free(4)
        assert alloc.free_count == 1
        assert alloc.allocate() == 4

    @pytest.mark.parametrize("strategy", ["sequential", "random"])
    def test_mark_allocated(self, strategy):
        alloc = make_allocator(strategy, 10, rng=Rng(0))
        alloc.mark_allocated(3)
        assert alloc.free_count == 9
        blocks = [alloc.allocate() for _ in range(9)]
        assert 3 not in blocks

    @pytest.mark.parametrize("strategy", ["sequential", "random"])
    def test_double_free_rejected(self, strategy):
        alloc = make_allocator(strategy, 10, rng=Rng(0))
        with pytest.raises(ValueError):
            alloc.free(0)

    @pytest.mark.parametrize("strategy", ["sequential", "random"])
    def test_mark_allocated_twice_rejected(self, strategy):
        alloc = make_allocator(strategy, 10, rng=Rng(0))
        alloc.mark_allocated(1)
        with pytest.raises(ValueError):
            alloc.mark_allocated(1)

    def test_sequential_is_sequential(self):
        alloc = SequentialAllocator(20)
        assert [alloc.allocate() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_sequential_wraps_after_free(self):
        alloc = SequentialAllocator(5)
        for _ in range(5):
            alloc.allocate()
        alloc.free(1)
        assert alloc.allocate() == 1

    def test_random_is_not_sequential(self):
        alloc = RandomAllocator(1000, rng=Rng(42))
        first_ten = [alloc.allocate() for _ in range(10)]
        assert first_ten != sorted(first_ten)

    def test_random_spread_is_uniform_ish(self):
        alloc = RandomAllocator(1000, rng=Rng(7))
        picks = [alloc.allocate() for _ in range(500)]
        low_half = sum(1 for b in picks if b < 500)
        assert 175 < low_half < 325  # ~250 expected

    def test_bitmap_fast_path(self):
        bm = Bitmap(30)
        for i in (1, 5, 9):
            bm.set(i)
        for strategy in ("sequential", "random"):
            alloc = make_allocator(strategy, 30, rng=Rng(0),
                                   allocated_bitmap=bm.to_bytes())
            assert alloc.free_count == 27
            got = set(alloc.allocate() for _ in range(27))
            assert got == set(range(30)) - {1, 5, 9}

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_allocator("best-fit", 10)

    @given(st.lists(st.sampled_from(["alloc", "free"]), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_random_allocator_invariants(self, ops):
        alloc = RandomAllocator(16, rng=Rng(1))
        held = []
        for op in ops:
            if op == "alloc" and alloc.free_count:
                held.append(alloc.allocate())
            elif op == "free" and held:
                alloc.free(held.pop())
        assert alloc.free_count == 16 - len(held)
        assert len(set(held)) == len(held)


class TestMetadataStore:
    def test_format_and_load(self):
        md = RAMBlockDevice(16)
        store = MetadataStore(md)
        meta = PoolMetadata.fresh(64)
        meta.bitmap.set(3)
        store.format(meta)
        loaded = store.load()
        assert loaded.num_data_blocks == 64
        assert loaded.bitmap.test(3)

    def test_unformatted_load_fails(self):
        md = RAMBlockDevice(16)
        with pytest.raises(MetadataError):
            MetadataStore(md).load()
        with pytest.raises(MetadataError):
            ThinPool.open(md, RAMBlockDevice(64), rng=Rng(0))

    def test_commit_alternates_generations(self):
        md = RAMBlockDevice(16)
        store = MetadataStore(md)
        meta = PoolMetadata.fresh(64)
        store.format(meta)
        g0 = store._read_super()[0]
        store.commit(meta)
        g1 = store._read_super()[0]
        store.commit(meta)
        g2 = store._read_super()[0]
        assert g0 != g1 and g1 != g2 and g0 == g2

    def test_transaction_id_increments(self):
        md = RAMBlockDevice(16)
        store = MetadataStore(md)
        meta = PoolMetadata.fresh(64)
        store.format(meta)
        store.commit(meta)
        store.commit(meta)
        assert store.load().transaction_id == 2

    def test_crash_between_area_and_superblock_keeps_old_state(self):
        """Shadow paging: corrupting the inactive area does not hurt."""
        md = RAMBlockDevice(16)
        store = MetadataStore(md)
        meta = PoolMetadata.fresh(64)
        meta.bitmap.set(1)
        store.format(meta)
        # simulate a torn write into the INACTIVE generation area only
        inactive_start = store._area_starts[1]
        md.poke(inactive_start, b"\xde\xad" * (BS // 2))
        loaded = store.load()
        assert loaded.bitmap.test(1)

    def test_payload_corruption_detected(self):
        md = RAMBlockDevice(16)
        store = MetadataStore(md)
        meta = PoolMetadata.fresh(64)
        meta.volumes[1] = __import__(
            "repro.dm.thin.metadata", fromlist=["VolumeRecord"]
        ).VolumeRecord(1, 32)
        store.format(meta)
        active_start = store._area_starts[store._read_super()[0]]
        raw = bytearray(md.peek(active_start))
        raw[0] ^= 0xFF
        md.poke(active_start, bytes(raw))
        with pytest.raises(MetadataError):
            store.load()

    def test_superblock_corruption_detected(self):
        md = RAMBlockDevice(16)
        store = MetadataStore(md)
        store.format(PoolMetadata.fresh(64))
        raw = bytearray(md.peek(0))
        raw[20] ^= 0x01
        md.poke(0, bytes(raw))
        with pytest.raises(MetadataError):
            store.load()

    def test_metadata_too_large_rejected(self):
        md = RAMBlockDevice(3)  # areas of 1 block each
        store = MetadataStore(md)
        meta = PoolMetadata.fresh(8 * BS * 4)  # bitmap alone > 1 block
        with pytest.raises(MetadataFullError):
            store.format(meta)

    def test_tiny_device_rejected(self):
        with pytest.raises(MetadataError):
            MetadataStore(RAMBlockDevice(2))

    def test_mapping_consistency_validated(self):
        """A mapping pointing at a block the bitmap says is free is corrupt."""
        meta = PoolMetadata.fresh(16)
        from repro.dm.thin.metadata import VolumeRecord

        meta.volumes[1] = VolumeRecord(1, 16, {0: 5})  # 5 not set in bitmap
        with pytest.raises(MetadataError):
            PoolMetadata.from_payload(meta.to_payload())

    @pytest.mark.parametrize("volumes", [0, 1, 4])
    def test_payload_bytes_pinned_to_per_entry_packing(self, volumes):
        """One pack per volume == one ``<QQ`` pack per mapping, byte for byte."""
        from repro.dm.thin.metadata import VolumeRecord

        rng = Rng(volumes)
        meta = PoolMetadata.fresh(4096)
        for vol_id in rng.sample(range(1, 50), volumes):
            vblocks = rng.sample(range(10_000), rng.randint(0, 300))
            mappings = {}
            for vblock in vblocks:
                pblock = rng.randint(0, 4095)
                if not meta.bitmap.test(pblock):
                    meta.bitmap.set(pblock)
                mappings[vblock] = pblock
            meta.volumes[vol_id] = VolumeRecord(vol_id, 10_000, mappings)
        if volumes:
            meta.volumes[99] = VolumeRecord(99, 8)  # an empty volume too

        payload = meta.to_payload()
        assert payload == _per_entry_payload(meta)
        loaded = PoolMetadata.from_payload(payload)
        assert loaded.volumes == meta.volumes
        assert loaded.bitmap.to_bytes() == meta.bitmap.to_bytes()
        assert loaded.to_payload() == payload


    def test_full_area_leaves_transaction_id_on_disk(self):
        """A commit that does not fit must not move the in-memory tx id."""
        from repro.dm.thin.metadata import VolumeRecord

        store = MetadataStore(RAMBlockDevice(5))  # one payload block per area
        meta = PoolMetadata.fresh(256)
        store.format(meta)
        store.commit(meta)
        assert meta.transaction_id == 1
        mappings = {v: v for v in range(256)}
        for pblock in mappings.values():
            meta.bitmap.set(pblock)
        meta.volumes[1] = VolumeRecord(1, 256, mappings)
        with pytest.raises(MetadataFullError):
            store.commit(meta)
        assert meta.transaction_id == store.load().transaction_id == 1


def _raw_payload(num_data_blocks, allocated, volumes, trailing=b""):
    """Pack a payload by hand: *volumes* is ``[(vol_id, size, pairs)]``."""
    import struct

    bits = bytearray((num_data_blocks + 7) // 8)
    for pblock in allocated:
        bits[pblock >> 3] |= 1 << (pblock & 7)
    parts = [struct.pack("<Q", num_data_blocks), bytes(bits),
             struct.pack("<I", len(volumes))]
    for vol_id, size, pairs in volumes:
        parts.append(struct.pack("<IQQ", vol_id, size, len(pairs)))
        for vblock, pblock in pairs:
            parts.append(struct.pack("<QQ", vblock, pblock))
    return b"".join(parts) + trailing


class TestPayloadValidation:
    """``from_payload`` accepts exactly what ``to_payload`` can write."""

    def test_well_formed_payload_accepted(self):
        raw = _raw_payload(16, [3, 5], [(1, 8, [(0, 3), (7, 5)]), (2, 4, [])])
        meta = PoolMetadata.from_payload(raw)
        assert meta.volumes[1].mappings == {0: 3, 7: 5}
        assert meta.to_payload() == raw

    def test_vblock_beyond_volume_rejected(self):
        raw = _raw_payload(16, [3], [(1, 8, [(8, 3)])])
        with pytest.raises(MetadataError, match="beyond"):
            PoolMetadata.from_payload(raw)

    def test_repeated_vblock_rejected(self):
        raw = _raw_payload(16, [3, 5], [(1, 8, [(2, 3), (2, 5)])])
        with pytest.raises(MetadataError, match="ascending"):
            PoolMetadata.from_payload(raw)

    def test_descending_vblocks_rejected(self):
        raw = _raw_payload(16, [3, 5], [(1, 8, [(4, 3), (2, 5)])])
        with pytest.raises(MetadataError, match="ascending"):
            PoolMetadata.from_payload(raw)

    def test_repeated_volume_id_rejected(self):
        raw = _raw_payload(16, [3, 5], [(1, 8, [(0, 3)]), (1, 8, [(1, 5)])])
        with pytest.raises(MetadataError, match="ascending"):
            PoolMetadata.from_payload(raw)

    def test_descending_volume_ids_rejected(self):
        raw = _raw_payload(16, [3, 5], [(2, 8, [(0, 3)]), (1, 8, [(1, 5)])])
        with pytest.raises(MetadataError, match="ascending"):
            PoolMetadata.from_payload(raw)

    def test_trailing_bytes_rejected(self):
        raw = _raw_payload(16, [3], [(1, 8, [(0, 3)])], trailing=b"\x00")
        with pytest.raises(MetadataError, match="trailing"):
            PoolMetadata.from_payload(raw)

    def test_truncated_payload_rejected(self):
        raw = _raw_payload(16, [3], [(1, 8, [(0, 3)])])
        for cut in (0, 5, 12, len(raw) - 1):
            with pytest.raises(MetadataError, match="truncated"):
                PoolMetadata.from_payload(raw[:cut])

    def test_bad_bitmap_is_a_metadata_error(self):
        raw = bytearray(_raw_payload(12, [], []))
        raw[9] = 0xFF  # pad bits beyond block 11
        with pytest.raises(MetadataError):
            PoolMetadata.from_payload(bytes(raw))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_over_random_pools(self, data):
        from repro.dm.thin.metadata import VolumeRecord
        from tests.oracles import full_payload

        num_data_blocks = data.draw(st.integers(1, 400))
        meta = PoolMetadata.fresh(num_data_blocks)
        free = list(range(num_data_blocks))
        vol_ids = data.draw(st.lists(st.integers(0, 2**32 - 1), unique=True,
                                     max_size=6))
        for vol_id in vol_ids:
            size = data.draw(st.integers(1, 2**40))
            count = data.draw(st.integers(0, min(len(free), size, 40)))
            vblocks = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                                         min_size=count, max_size=count))
            mappings = {}
            for vblock in vblocks:
                pblock = free.pop(data.draw(st.integers(0, len(free) - 1)))
                meta.bitmap.set(pblock)
                mappings[vblock] = pblock
            meta.volumes[vol_id] = VolumeRecord(vol_id, size, mappings)
        for pblock in data.draw(st.lists(st.sampled_from(free), unique=True)
                                if free else st.just([])):
            meta.bitmap.set(pblock)  # orphan bits decode too
        payload = meta.to_payload()
        assert payload == full_payload(meta)
        assert PoolMetadata.from_payload(payload) == meta


def _per_entry_payload(meta):
    """The thin metadata payload packed one ``struct.pack`` per mapping."""
    import struct

    parts = [struct.pack("<Q", meta.num_data_blocks), meta.bitmap.to_bytes(),
             struct.pack("<I", len(meta.volumes))]
    for vol_id in sorted(meta.volumes):
        record = meta.volumes[vol_id]
        parts.append(struct.pack("<IQQ", record.vol_id, record.virtual_blocks,
                                 len(record.mappings)))
        for vblock in sorted(record.mappings):
            parts.append(struct.pack("<QQ", vblock, record.mappings[vblock]))
    return b"".join(parts)


class TestThinPool:
    def test_volumes_lifecycle(self):
        pool, _, _ = make_pool()
        pool.create_thin(1, 64)
        assert pool.volume_ids() == [1]
        with pytest.raises(VolumeExistsError):
            pool.create_thin(1, 64)
        with pytest.raises(NoSuchVolumeError):
            pool.get_thin(2)
        pool.create_thin(2, 32)
        assert pool.volume_ids() == [1, 2]
        assert pool.get_thin(2).num_blocks == 32

    def test_thin_reads_zero_when_unmapped(self):
        pool, _, _ = make_pool()
        pool.create_thin(1, 64)
        thin = pool.get_thin(1)
        assert thin.read_block(10) == b"\x00" * BS
        assert pool.stats.reads_unmapped == 1

    def test_write_provisions_once(self):
        pool, _, _ = make_pool()
        pool.create_thin(1, 64)
        thin = pool.get_thin(1)
        thin.write_block(5, block(1))
        thin.write_block(5, block(2))
        assert pool.allocated_data_blocks == 1
        assert thin.read_block(5) == block(2)

    def test_volumes_never_share_blocks(self):
        pool, _, _ = make_pool(data_blocks=64)
        pool.create_thin(1, 64)
        pool.create_thin(2, 64)
        v1, v2 = pool.get_thin(1), pool.get_thin(2)
        for i in range(20):
            v1.write_block(i, block(1))
            v2.write_block(i, block(2))
        m1 = set(pool.volume_record(1).mappings.values())
        m2 = set(pool.volume_record(2).mappings.values())
        assert not m1 & m2

    def test_exhaustion(self):
        pool, _, _ = make_pool(data_blocks=4)
        pool.create_thin(1, 64)
        thin = pool.get_thin(1)
        for i in range(4):
            thin.write_block(i, block(i))
        with pytest.raises(PoolExhaustedError):
            thin.write_block(10, block(9))

    def test_discard_frees_space(self):
        pool, _, _ = make_pool()
        pool.create_thin(1, 64)
        thin = pool.get_thin(1)
        thin.write_block(0, block(1))
        free_before = pool.free_data_blocks
        thin.discard(0)
        assert pool.free_data_blocks == free_before + 1
        assert thin.read_block(0) == b"\x00" * BS

    def test_persistence_roundtrip(self):
        pool, md, dd = make_pool()
        pool.create_thin(1, 64)
        thin = pool.get_thin(1)
        thin.write_block(7, block(0x77))
        pool.commit()
        pool2 = ThinPool.open(md, dd, rng=Rng(9))
        assert pool2.get_thin(1).read_block(7) == block(0x77)
        assert pool2.allocated_data_blocks == 1

    def test_uncommitted_allocations_tracked(self):
        """The transaction record of Sec. V-A."""
        pool, _, _ = make_pool()
        pool.create_thin(1, 64)
        thin = pool.get_thin(1)
        thin.write_block(0, block(1))
        thin.write_block(1, block(2))
        assert len(pool.uncommitted_allocations) == 2
        pool.commit()
        assert not pool.uncommitted_allocations

    def test_no_double_allocation_within_transaction(self):
        pool, _, _ = make_pool(data_blocks=32)
        pool.create_thin(1, 64)
        thin = pool.get_thin(1)
        for i in range(32):
            thin.write_block(i, block(i))
        physical = list(pool.volume_record(1).mappings.values())
        assert len(set(physical)) == 32

    def test_dummy_hook_fires_on_provision_only(self):
        pool, _, _ = make_pool()
        pool.create_thin(1, 64)
        pool.create_thin(2, 64)
        calls = []
        pool.set_dummy_write_hook(lambda p, v: calls.append(v))
        thin = pool.get_thin(1)
        thin.write_block(0, block(1))   # provision -> hook
        thin.write_block(0, block(2))   # rewrite -> no hook
        assert calls == [1]

    def test_dummy_hook_no_recursion(self):
        pool, _, _ = make_pool()
        pool.create_thin(1, 64)
        pool.create_thin(2, 64)
        rng = Rng(0)

        def hook(p, vol_id):
            p.append_noise(2, block(0xEE), rng)

        pool.set_dummy_write_hook(hook)
        pool.get_thin(1).write_block(0, block(1))
        assert pool.stats.dummy_blocks == 1
        assert pool.volume_record(2).provisioned_blocks == 1

    def test_append_noise_respects_virtual_bounds(self):
        pool, _, _ = make_pool(data_blocks=64)
        pool.create_thin(2, 4)
        rng = Rng(0)
        for _ in range(4):
            assert pool.append_noise(2, block(0xAA), rng) is not None
        assert pool.append_noise(2, block(0xAA), rng) is None

    def test_thin_costs_charged(self):
        clock = SimClock()
        pool, _, _ = make_pool(
            clock=clock, costs=ThinCosts(lookup_read_s=1e-3, lookup_write_s=2e-3,
                                         provision_s=4e-3)
        )
        pool.create_thin(1, 64)
        thin = pool.get_thin(1)
        thin.write_block(0, block(1))
        assert clock.now == pytest.approx(2e-3 + 4e-3)
        thin.read_block(0)
        assert clock.now == pytest.approx(2e-3 + 4e-3 + 1e-3)

    def test_geometry_mismatch_rejected(self):
        md = RAMBlockDevice(16)
        dd = RAMBlockDevice(128)
        ThinPool.format(md, dd)
        with pytest.raises(MetadataError):
            ThinPool(MetadataStore(md), RAMBlockDevice(64),
                     MetadataStore(md).load())

    @given(
        st.lists(
            st.tuples(st.integers(1, 2), st.integers(0, 31), st.integers(0, 255)),
            min_size=1, max_size=50,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_pool_behaves_like_per_volume_dict(self, writes):
        pool, _, _ = make_pool(data_blocks=128)
        pool.create_thin(1, 32)
        pool.create_thin(2, 32)
        model = {}
        for vol, vblock, byte in writes:
            pool.get_thin(vol).write_block(vblock, block(byte))
            model[(vol, vblock)] = byte
        for (vol, vblock), byte in model.items():
            assert pool.get_thin(vol).read_block(vblock) == block(byte)
