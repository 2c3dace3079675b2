"""Forensic analysis of disk snapshots.

The paper's adversary can "perform advanced computer forensics on the disk
image" — this module is that toolkit: change-pattern statistics over
snapshot series (with an entropy test for blocks that turned random) and
a raw-image grep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.blockdev.snapshot import Snapshot, SnapshotDiff, diff
from repro.util.stats import shannon_entropy

#: Blocks with entropy above this (bits/byte) look like ciphertext/noise.
RANDOMNESS_ENTROPY_THRESHOLD = 7.2


@dataclass(frozen=True)
class ChangeAnalysis:
    """Change statistics between two snapshots of the same device."""

    changed_blocks: int
    changed_to_random: int
    longest_run: int
    num_runs: int


def analyze_changes(before: Snapshot, after: Snapshot) -> ChangeAnalysis:
    """Diff two snapshots and characterize what changed."""
    d: SnapshotDiff = diff(before, after)
    to_random = 0
    for index in d.changed_blocks:
        if shannon_entropy(after.block(index)) >= RANDOMNESS_ENTROPY_THRESHOLD:
            to_random += 1
    runs = d.runs()
    return ChangeAnalysis(
        changed_blocks=d.num_changed,
        changed_to_random=to_random,
        longest_run=d.longest_run(),
        num_runs=len(runs),
    )


def grep_snapshot(snapshot: Snapshot, needle: bytes) -> List[int]:
    """Block indices whose raw contents contain *needle*.

    The classic "strings | grep" of disk forensics — the core primitive of
    the side-channel attack (hidden file paths leaking into public media).
    """
    return [
        i for i in range(snapshot.num_blocks) if needle in snapshot.block(i)
    ]
