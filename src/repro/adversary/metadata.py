"""Adversarial parsing of on-disk thin-pool metadata from a snapshot.

MobiCeal's threat model gives the adversary everything public: the design,
the storage layout, and the thin-pool metadata (global bitmap + per-volume
mappings) sitting unencrypted at a known location (Sec. IV-B: "the system
keeps the metadata in a known location and the adversary can have access to
them"). Deniability must survive this — the hidden volume's metadata must
be indistinguishable from a dummy volume's.

These helpers reconstruct the pool metadata straight from a raw snapshot,
using only public layout knowledge (Kerckhoffs's principle).
"""

from __future__ import annotations

from typing import Dict

from repro.android.footer import FOOTER_BLOCKS
from repro.blockdev.device import RAMBlockDevice
from repro.blockdev.snapshot import Snapshot, restore
from repro.dm.thin.metadata import MetadataStore, PoolMetadata


def metadata_region(
    userdata_blocks: int, metadata_fraction: float = 0.02
) -> tuple:
    """(start_block, num_blocks) of the thin metadata LV inside userdata.

    Mirrors the public LVM layout of both MobiCeal and the MobiPluto
    baseline: the metadata LV takes the first extents of the volume group.
    """
    area = userdata_blocks - FOOTER_BLOCKS
    extent = min(1024, max(4, area // 64))
    meta_blocks = max(8, int(area * metadata_fraction))
    meta_extents = -(-meta_blocks // extent)
    return 0, meta_extents * extent


def snapshot_to_device(snapshot: Snapshot) -> RAMBlockDevice:
    """Materialize a snapshot as a read-write scratch device."""
    device = RAMBlockDevice(snapshot.num_blocks, snapshot.block_size)
    restore(device, snapshot)
    return device


def extract_pool_metadata(
    snapshot: Snapshot, metadata_fraction: float = 0.02
) -> PoolMetadata:
    """Parse the thin-pool metadata out of a raw userdata snapshot."""
    start, length = metadata_region(snapshot.num_blocks, metadata_fraction)
    meta_dev = RAMBlockDevice(length, snapshot.block_size)
    meta_dev.poke_extent(0, b"".join(snapshot.blocks[start : start + length]))
    return MetadataStore(meta_dev).load()


def volume_allocations(metadata: PoolMetadata) -> Dict[int, int]:
    """vol_id -> number of provisioned data blocks (what metadata reveals)."""
    return {
        vol_id: len(record.mappings)
        for vol_id, record in metadata.volumes.items()
    }


def new_allocations_per_volume(
    before: PoolMetadata, after: PoolMetadata
) -> Dict[int, int]:
    """vol_id -> data blocks newly provisioned between two snapshots."""
    result: Dict[int, int] = {}
    for vol_id, record in after.volumes.items():
        old = before.volumes.get(vol_id)
        old_mappings = old.mappings if old is not None else {}
        fresh = sum(
            1 for vblock in record.mappings if vblock not in old_mappings
        )
        result[vol_id] = fresh
    return result
