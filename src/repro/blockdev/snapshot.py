"""Disk snapshot capture and comparison.

The multi-snapshot adversary of the paper is modeled literally: it calls
:func:`capture` on the victim's storage medium at different points of time
("on-event", e.g. at a border checkpoint) and then diffs the images. These
primitives are shared by the adversary toolkit and by tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.blockdev.device import BlockDevice


@dataclass(frozen=True)
class Snapshot:
    """A full image of a block device at one point of (simulated) time."""

    label: str
    taken_at: float
    block_size: int
    blocks: tuple  # tuple[bytes, ...]; frozen for hashability of the snapshot
    #: Per-block SHA-256 hex digests, when the capture got them for free
    #: (a frozen CoW image); ``None`` otherwise. Lazily filled by
    #: :meth:`block_hashes` — consumers that intern by content (the server
    #: store) use these to skip re-hashing unchanged blocks.
    hashes: Optional[tuple] = None

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block(self, index: int) -> bytes:
        return self.blocks[index]

    def block_hashes(self) -> tuple:
        """Per-block SHA-256 hex digests, computed once and cached.

        Interned blocks (the common case: a device image is mostly one
        fill pattern plus repeated payloads) hash once per distinct
        object, so this is O(distinct blocks) work.
        """
        if self.hashes is None:
            memo: Dict[int, str] = {}
            hashes = []
            for b in self.blocks:
                key = id(b)
                h = memo.get(key)
                if h is None:
                    h = hashlib.sha256(b).hexdigest()
                    memo[key] = h
                hashes.append(h)
            object.__setattr__(self, "hashes", tuple(hashes))
        return self.hashes

    def manifest_digest(self) -> str:
        """SHA-256 over the per-block hash manifest: the image's digest.

        Content-equal images always agree (the manifest is a pure
        function of the block contents), and a frozen CoW capture
        holds its per-block hashes already (it hashes only the blocks
        dirtied since its previous freeze), so no other block byte is
        read. The server uses this as
        both a device's ``image_digest`` and a snapshot's ``digest``.
        """
        joined = "".join(self.block_hashes()).encode("ascii")
        return hashlib.sha256(joined).hexdigest()


def capture(device: BlockDevice, label: str = "", taken_at: float = 0.0) -> Snapshot:
    """Capture a snapshot of *device* without disturbing its I/O counters.

    The adversary images the raw medium (e.g. by desoldering or via a
    forensic port), so the capture bypasses the stats/latency machinery.
    Store-backed devices hand over a frozen image directly
    (:meth:`~repro.blockdev.device.BlockDevice.freeze_image`, O(dirty
    blocks) with per-block hashes attached); everything else (e.g. a
    :class:`~repro.blockdev.device.SubDevice` window) is read through
    the out-of-band ``peek_extent`` hook, ~1 MiB at a time.
    Identical blocks are interned so an image dominated by one fill
    pattern (sparse or factory-fresh devices) stays cheap in memory.
    """
    bs = device.block_size
    frozen = device.freeze_image()
    if frozen is not None:
        return Snapshot(
            label=label,
            taken_at=taken_at,
            block_size=bs,
            blocks=frozen.blocks,
            hashes=frozen.hashes,
        )
    total = device.num_blocks
    chunk = max(1, (1 << 20) // bs)
    interned: Dict[bytes, bytes] = {}
    blocks: List[bytes] = []
    start = 0
    while start < total:
        take = min(chunk, total - start)
        raw = device.peek_extent(start, take)
        for i in range(take):
            b = raw[i * bs : (i + 1) * bs]
            blocks.append(interned.setdefault(b, b))
        start += take
    return Snapshot(
        label=label,
        taken_at=taken_at,
        block_size=bs,
        blocks=tuple(blocks),
    )


@dataclass(frozen=True)
class SnapshotDiff:
    """Blocks that differ between two snapshots of the same device."""

    before: str
    after: str
    changed_blocks: tuple  # tuple[int, ...] sorted ascending

    @property
    def num_changed(self) -> int:
        return len(self.changed_blocks)

    def runs(self) -> List[tuple]:
        """Maximal runs of consecutive changed blocks as (start, length).

        Spatial clustering of changes is the main signal a multi-snapshot
        adversary exploits against sequential allocation (Sec. IV-A Q4).
        """
        runs: List[tuple] = []
        start = None
        prev = None
        for b in self.changed_blocks:
            if start is None:
                start, prev = b, b
            elif b == prev + 1:
                prev = b
            else:
                runs.append((start, prev - start + 1))
                start, prev = b, b
        if start is not None:
            runs.append((start, prev - start + 1))
        return runs

    def longest_run(self) -> int:
        return max((length for _, length in self.runs()), default=0)


def changed_blocks(before: Sequence, after: Sequence) -> List[int]:
    """Ascending indices at which two equal-length tuples differ.

    Works on block tuples and on hash manifests alike. Runs of 64 entries
    are compared with one C-level tuple comparison first, which
    short-circuits on shared objects — the common case for images that
    share most of their blocks — so equal stretches cost almost nothing.
    """
    changed: List[int] = []
    total = len(after)
    for lo in range(0, total, 64):
        hi = min(lo + 64, total)
        if before[lo:hi] != after[lo:hi]:
            changed.extend(i for i in range(lo, hi) if before[i] != after[i])
    return changed


def diff(before: Snapshot, after: Snapshot) -> SnapshotDiff:
    """Compute the set of changed blocks between two snapshots."""
    if before.num_blocks != after.num_blocks or before.block_size != after.block_size:
        raise ValueError("snapshots have different geometry")
    return SnapshotDiff(
        before=before.label,
        after=after.label,
        changed_blocks=tuple(changed_blocks(before.blocks, after.blocks)),
    )


def restore(device, snapshot: Snapshot) -> None:
    """Write *snapshot* back onto *device* (forensic image restore)."""
    if device.num_blocks != snapshot.num_blocks:
        raise ValueError("snapshot geometry does not match device")
    chunk = max(1, (1 << 20) // snapshot.block_size)
    for start in range(0, snapshot.num_blocks, chunk):
        device.poke_extent(
            start, b"".join(snapshot.blocks[start : start + chunk])
        )
