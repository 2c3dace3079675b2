"""Block-device substrate: simulated clock, latency models, devices, snapshots."""

from repro.blockdev.clock import SimClock, Stopwatch
from repro.blockdev.device import (
    DEFAULT_BLOCK_SIZE,
    BlockDevice,
    ExtentCosts,
    IOStats,
    PerBlockDevice,
    RAMBlockDevice,
    SubDevice,
    in_recovery,
    recovery_io,
    replay_per_block,
)
from repro.blockdev.emmc import EMMCDevice
from repro.blockdev.faults import (
    FaultPlan,
    FaultyBlockDevice,
    crash_point,
    inject,
)
from repro.blockdev.latency import FREE, LatencyModel
from repro.blockdev.store import CowOverlayStore, FrozenImage
from repro.blockdev.snapshot import (
    Snapshot,
    SnapshotDiff,
    capture,
    diff,
    restore,
)

__all__ = [
    "SimClock",
    "Stopwatch",
    "DEFAULT_BLOCK_SIZE",
    "BlockDevice",
    "ExtentCosts",
    "IOStats",
    "PerBlockDevice",
    "RAMBlockDevice",
    "SubDevice",
    "in_recovery",
    "recovery_io",
    "replay_per_block",
    "CowOverlayStore",
    "FrozenImage",
    "EMMCDevice",
    "FaultPlan",
    "FaultyBlockDevice",
    "crash_point",
    "inject",
    "FREE",
    "LatencyModel",
    "Snapshot",
    "SnapshotDiff",
    "capture",
    "diff",
    "restore",
]
