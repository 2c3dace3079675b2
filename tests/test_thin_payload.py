"""Differential test: the thin pool's cached metadata encoding.

:meth:`PoolMetadata.encode` re-packs only the volumes whose mappings moved
and reuses the whole payload and its SHA-256 when nothing changed. Every
test here drives a random-allocation pool with dummy writes through the
operations that touch metadata and, after every commit, requires the
encoding to equal the from-scratch serialization in
``tests/oracles/thin_payload.py`` and the committed generation to load
back as the same state.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockdev import RAMBlockDevice, SimClock
from repro.core.config import MobiCealConfig
from repro.core.dummywrite import DummyWritePolicy
from repro.core.gc import collect_dummy_space
from repro.crypto import Rng
from repro.dm.thin import MetadataStore, ThinPool
from repro.dm.thin.metadata import VolumeRecord
from tests import oracles

BS = 4096
VOLUMES = 4
VIRTUAL = 96


def block(byte: int) -> bytes:
    return bytes([byte & 0xFF]) * BS


def make_pool(seed: int, data_blocks: int = 512):
    md, dd = RAMBlockDevice(32), RAMBlockDevice(data_blocks)
    pool = ThinPool.format(md, dd, allocation="random", rng=Rng(seed))
    policy = DummyWritePolicy(
        MobiCealConfig(num_volumes=VOLUMES), Rng(seed + 1), SimClock()
    )
    pool.set_dummy_write_hook(policy.on_provision)
    for vol_id in range(1, VOLUMES + 1):
        pool.create_thin(vol_id, VIRTUAL)
    return pool, md, dd


def commit_and_check(pool: ThinPool, md) -> bytes:
    """Commit, then hold the cached encoding and the disk to the oracle."""
    pool.commit()
    payload, digest = pool.metadata.encode()
    assert (payload, digest) == oracles.full_encoding(pool.metadata)
    loaded = MetadataStore(md).load()
    assert loaded == pool.metadata
    assert loaded.encode() == (payload, digest)
    return payload


def test_every_metadata_operation_matches_full_serialization():
    pool, md, dd = make_pool(seed=3)
    rng = Rng(99)
    public = pool.get_thin(1)
    commit_and_check(pool, md)

    # provisioning writes, each of which may fire a dummy-write burst
    for vblock in rng.sample(range(VIRTUAL), 40):
        public.write_block(vblock, block(vblock))
    assert pool.stats.dummy_blocks > 0
    payload = commit_and_check(pool, md)

    # nothing changed: the same payload object comes back, not a re-pack
    assert commit_and_check(pool, md) is payload

    # overwrites of mapped blocks leave the metadata as it is
    for vblock in list(pool.volume_record(1).mappings)[:10]:
        public.write_block(vblock, block(vblock + 1))
    assert commit_and_check(pool, md) is payload

    # discards
    for vblock in list(pool.volume_record(1).mappings)[:7]:
        public.discard(vblock)
    commit_and_check(pool, md)

    # a garbage-collection pass over the dummy volumes
    result = collect_dummy_space(pool, range(2, VOLUMES + 1), Rng(5))
    assert result.blocks_examined > 0
    commit_and_check(pool, md)

    # volume lifecycle: a new volume, written, then trimmed empty
    pool.create_thin(VOLUMES + 1, VIRTUAL)
    fresh = pool.get_thin(VOLUMES + 1)
    fresh.write_block(0, block(7))
    fresh.write_block(1, block(8))
    commit_and_check(pool, md)
    for vblock in list(pool.volume_record(VOLUMES + 1).mappings):
        fresh.discard(vblock)
    commit_and_check(pool, md)

    # crash recovery of a committed orphan bit: only the bitmap changes,
    # both when the bit is set and when recovery frees it
    meta = pool.metadata
    free = next(p for p in range(meta.num_data_blocks) if not meta.bitmap.test(p))
    meta.bitmap.set(free)
    commit_and_check(pool, md)
    pool, report = ThinPool.recover(md, dd, rng=Rng(4))
    assert (report.orphan_blocks_freed, report.double_mappings_dropped) == (1, 0)
    check_recovered(pool, md)

    # and of a committed double claim
    meta = pool.metadata
    stolen = meta.volumes[1].mappings[min(meta.volumes[1].mappings)]
    vblock = next(v for v in range(VIRTUAL) if v not in meta.volumes[3].mappings)
    meta.volumes[3].map(vblock, stolen)
    commit_and_check(pool, md)
    pool, report = ThinPool.recover(md, dd, rng=Rng(5))
    assert (report.orphan_blocks_freed, report.double_mappings_dropped) == (0, 1)
    check_recovered(pool, md)

    # the recovered pool keeps committing correctly
    pool.get_thin(3).write_block(vblock, block(1))
    commit_and_check(pool, md)


def check_recovered(pool: ThinPool, md) -> None:
    """A reconciling recovery recommits; hold that commit to the oracle."""
    meta = pool.metadata
    assert meta.encode() == oracles.full_encoding(meta)
    assert MetadataStore(md).load() == meta


def test_load_seeds_the_cache_with_the_verified_payload():
    pool, md, _ = make_pool(seed=8)
    pool.get_thin(1).write_block(0, block(1))
    payload = commit_and_check(pool, md)
    loaded = MetadataStore(md).load()
    cached, _digest = loaded.encode()
    assert cached == payload
    assert loaded.encode()[0] is cached


def test_only_changed_volumes_are_repacked():
    pool, md, _ = make_pool(seed=8)
    pool.get_thin(1).write_block(0, block(1))
    payload = commit_and_check(pool, md)
    meta = pool.metadata
    versions = {vol_id: r.version for vol_id, r in meta.volumes.items()}
    pool.get_thin(2).write_block(5, block(2))
    assert meta.volumes[2].version != versions[2]
    for vol_id, record in meta.volumes.items():
        # an unchanged volume still serves its view into the last payload
        reused = record.version == versions[vol_id]
        segment = record.segment()
        assert isinstance(segment, memoryview) == reused
        if reused:
            assert segment.obj is payload
    commit_and_check(pool, md)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["write", "overwrite", "discard", "commit", "gc", "create", "trim"]
        ),
        st.integers(0, 10_000),
    ),
    max_size=60,
)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), ops=_OPS)
def test_random_operation_sequences(seed, ops):
    pool, md, _ = make_pool(seed, data_blocks=1024)
    next_vol = VOLUMES + 1
    for op, arg in ops:
        vol_ids = pool.volume_ids()
        vol_id = vol_ids[arg % len(vol_ids)]
        record = pool.volume_record(vol_id)
        mapped = sorted(record.mappings)
        if op == "write" and pool.free_data_blocks > 2 * VOLUMES * 8:
            pool.get_thin(vol_id).write_block(
                arg % record.virtual_blocks, block(arg)
            )
        elif op == "overwrite" and mapped:
            pool.get_thin(vol_id).write_block(mapped[arg % len(mapped)], block(arg))
        elif op == "discard" and mapped:
            pool.discard_mapped(record, mapped[arg % len(mapped)])
        elif op == "commit":
            commit_and_check(pool, md)
        elif op == "gc":
            collect_dummy_space(pool, vol_ids[1:], Rng(arg))
        elif op == "create":
            pool.create_thin(next_vol, 1 + arg % VIRTUAL)
            next_vol += 1
        elif op == "trim":
            thin = pool.get_thin(vol_id)
            for vblock in mapped:
                thin.discard(vblock)
    commit_and_check(pool, md)


def test_mappings_view_is_read_only():
    record = VolumeRecord(1, 16, {0: 5})
    with pytest.raises(TypeError):
        record.mappings[1] = 6
    with pytest.raises(TypeError):
        del record.mappings[0]
    with pytest.raises(AttributeError):
        record.mappings.pop(0)
    with pytest.raises(AttributeError):
        record.virtual_blocks = 32
    assert record.mappings == {0: 5}
    version = record.version
    record.map(1, 6)
    assert record.unmap(0) == 5
    assert record.unmap(0) is None
    assert record.version == version + 2
    assert record.mappings == {1: 6}
