"""Device-mapper core.

Linux's device mapper builds virtual block devices from *tables*: ordered
lists of ``(start, length, target)`` segments, where each target maps I/O in
its segment onto lower devices. MobiCeal's whole stack — dm-crypt over a
thin volume over a pool over the eMMC — is expressed with these pieces, so
we reproduce the same architecture.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.blockdev.device import BlockDevice, ExtentCosts
from repro.errors import BadBlockSizeError, TableError


class Target(ABC):
    """A device-mapper target mapping a fixed number of virtual blocks."""

    def __init__(self, num_blocks: int, block_size: int) -> None:
        if num_blocks <= 0:
            raise TableError(f"target must cover at least 1 block, got {num_blocks}")
        self.num_blocks = num_blocks
        self.block_size = block_size

    def read(self, block: int) -> bytes:
        """Read one block; sugar for a single-block extent."""
        return self.read_extent(block, 1)

    def write(self, block: int, data: bytes) -> None:
        """Write one block; sugar for a single-block extent."""
        self.write_extent(block, data)

    @abstractmethod
    def read_extent(
        self, block: int, count: int, costs: Optional[ExtentCosts] = None
    ) -> bytes:
        """Read *count* consecutive blocks (0-based within this segment).

        Extents are the only I/O representation: single blocks arrive as
        one-block extents, and targets that must act block-at-a-time loop
        via :func:`~repro.blockdev.device.replay_per_block`.
        """

    @abstractmethod
    def write_extent(
        self, block: int, data: bytes, costs: Optional[ExtentCosts] = None
    ) -> None:
        """Write consecutive blocks within this target's segment."""

    def discard(self, block: int) -> None:
        """Discard hint; targets may ignore it."""

    def flush(self) -> None:
        """Flush target state to lower devices."""

    @property
    def target_type(self) -> str:
        return type(self).__name__.replace("Target", "").lower()


@dataclass(frozen=True)
class TableEntry:
    """One line of a dm table: segment [start, start+length) -> target."""

    start: int
    length: int
    target: Target


class DMDevice(BlockDevice):
    """A virtual block device assembled from a device-mapper table.

    The table must tile the virtual device exactly: segments sorted,
    contiguous, non-overlapping, first at 0 — the same validation the
    kernel performs at ``dmsetup create`` time.
    """

    def __init__(self, name: str, table: Sequence[TableEntry], block_size: int) -> None:
        validated = _validate_table(table, block_size)
        total = validated[-1].start + validated[-1].length
        super().__init__(total, block_size)
        self.name = name
        self._table: List[TableEntry] = validated
        self._starts: List[int] = [entry.start for entry in validated]

    @property
    def table(self) -> List[TableEntry]:
        return list(self._table)

    def _lookup(self, block: int) -> tuple:
        """Locate (entry, offset-within-target) for a virtual block."""
        index = bisect_right(self._starts, block) - 1
        if index >= 0:
            entry = self._table[index]
            offset = block - entry.start
            if offset < entry.length:
                return entry, offset
        raise TableError(f"no table entry covers block {block}")

    def _read_extent(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        entry, offset = self._lookup(start)
        if offset + count <= entry.length:  # within one segment
            return entry.target.read_extent(offset, count, costs)
        parts = []
        while count > 0:
            entry, offset = self._lookup(start)
            span = min(count, entry.length - offset)
            parts.append(entry.target.read_extent(offset, span, costs))
            start += span
            count -= span
        return b"".join(parts)

    def _write_extent(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        bs = self._block_size
        count = len(data) // bs
        entry, offset = self._lookup(start)
        if offset + count <= entry.length:  # within one segment
            entry.target.write_extent(offset, data, costs)
            return
        pos = 0
        while count > 0:
            entry, offset = self._lookup(start)
            span = min(count, entry.length - offset)
            entry.target.write_extent(offset, data[pos : pos + span * bs], costs)
            start += span
            pos += span * bs
            count -= span

    # Out-of-band access on a dm device still resolves through the table
    # (there is no medium *under* the mapping to image directly), so peeks
    # ride the targets' normal extent path, as the historical per-block
    # peek did.
    def peek_extent(self, start: int, count: int) -> bytes:
        parts = []
        while count > 0:
            entry, offset = self._lookup(start)
            span = min(count, entry.length - offset)
            parts.append(entry.target.read_extent(offset, span))
            start += span
            count -= span
        return b"".join(parts)

    def poke_extent(self, start: int, data: bytes) -> None:
        bs = self._block_size
        if len(data) % bs != 0:
            raise BadBlockSizeError(len(data), bs)
        count = len(data) // bs
        pos = 0
        while count > 0:
            entry, offset = self._lookup(start)
            span = min(count, entry.length - offset)
            entry.target.write_extent(offset, data[pos : pos + span * bs])
            start += span
            pos += span * bs
            count -= span

    def _discard(self, block: int) -> None:
        entry, offset = self._lookup(block)
        entry.target.discard(offset)

    def _flush(self) -> None:
        for entry in self._table:
            entry.target.flush()


def _validate_table(table: Sequence[TableEntry], block_size: int) -> List[TableEntry]:
    if not table:
        raise TableError("device-mapper table is empty")
    entries = sorted(table, key=lambda e: e.start)
    expected_start = 0
    for entry in entries:
        if entry.start != expected_start:
            raise TableError(
                f"table gap/overlap: segment starts at {entry.start}, "
                f"expected {expected_start}"
            )
        if entry.length != entry.target.num_blocks:
            raise TableError(
                f"segment length {entry.length} != target size "
                f"{entry.target.num_blocks}"
            )
        if entry.target.block_size != block_size:
            raise TableError(
                f"target block size {entry.target.block_size} != device "
                f"block size {block_size}"
            )
        expected_start = entry.start + entry.length
    return entries


def single_target_device(name: str, target: Target) -> DMDevice:
    """Convenience: a dm device whose table is one target at offset 0."""
    return DMDevice(
        name,
        [TableEntry(start=0, length=target.num_blocks, target=target)],
        target.block_size,
    )
