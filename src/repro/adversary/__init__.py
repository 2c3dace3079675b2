"""Adversary toolkit: forensics, metadata parsing, the security game, side channels."""

from repro.adversary.forensics import (
    RANDOMNESS_ENTROPY_THRESHOLD,
    ChangeAnalysis,
    analyze_changes,
    grep_snapshot,
)
from repro.adversary.game import (
    AccessOp,
    ClusteredAllocationAdversary,
    Adversary,
    GameHarness,
    GameResult,
    MultiSnapshotGame,
    UnaccountableAllocationAdversary,
    best_advantage,
    make_pattern_pairs,
    pattern_pairs_from_trace,
    trace_pairs_factory,
)
from repro.adversary.harnesses import MobiCealHarness, MobiPlutoHarness
from repro.adversary.metadata import (
    extract_pool_metadata,
    metadata_region,
    new_allocations_per_volume,
    snapshot_to_device,
    volume_allocations,
)
from repro.adversary.sidechannel import LeakReport, side_channel_attack

__all__ = [
    "RANDOMNESS_ENTROPY_THRESHOLD",
    "ChangeAnalysis",
    "analyze_changes",
    "grep_snapshot",
    "AccessOp",
    "ClusteredAllocationAdversary",
    "Adversary",
    "GameHarness",
    "GameResult",
    "MultiSnapshotGame",
    "UnaccountableAllocationAdversary",
    "best_advantage",
    "make_pattern_pairs",
    "pattern_pairs_from_trace",
    "trace_pairs_factory",
    "MobiCealHarness",
    "MobiPlutoHarness",
    "extract_pool_metadata",
    "metadata_region",
    "new_allocations_per_volume",
    "snapshot_to_device",
    "volume_allocations",
    "LeakReport",
    "side_channel_attack",
]
