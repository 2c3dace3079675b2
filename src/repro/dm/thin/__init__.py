"""Thin provisioning: metadata, allocation strategies, pool and thin targets."""

from repro.dm.thin.allocation import (
    Allocator,
    RandomAllocator,
    SequentialAllocator,
    make_allocator,
)
from repro.dm.thin.bitmap import Bitmap
from repro.dm.thin.metadata import (
    MetadataRecovery,
    MetadataStore,
    PoolMetadata,
    VolumeRecord,
)
from repro.dm.thin.pool import PoolRecovery, PoolStats, ThinCosts, ThinPool
from repro.dm.thin.thin import ThinDevice

__all__ = [
    "Allocator",
    "RandomAllocator",
    "SequentialAllocator",
    "make_allocator",
    "Bitmap",
    "MetadataRecovery",
    "MetadataStore",
    "PoolMetadata",
    "VolumeRecord",
    "PoolRecovery",
    "PoolStats",
    "ThinCosts",
    "ThinPool",
    "ThinDevice",
]
