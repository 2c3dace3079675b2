"""Pluggable backing stores for block devices.

A :class:`BlockStore` is the *medium* under a
:class:`~repro.blockdev.device.RAMBlockDevice`: a flat array of
fixed-size blocks with bulk extent accessors and no notion of clocks,
stats or costs — all of that lives in the device layer. Separating the
two gives the whole stack one seam where the storage substrate can be
swapped without any simulated-behaviour change:

* :class:`RamStore` — everything in process memory (a NumPy ``uint8``
  array, or a per-block dict in sparse mode). What a
  :class:`~repro.blockdev.device.RAMBlockDevice` builds unless its owner
  hands it another store: dense for small devices, sparse above
  :data:`SPARSE_THRESHOLD` blocks.
* :class:`CowOverlayStore` — a frozen, content-addressed base image
  plus a dirty-block overlay. :meth:`~CowOverlayStore.freeze` produces
  a new :class:`FrozenImage` in O(dirty blocks): unchanged blocks reuse
  the base's interned bytes *and* their cached SHA-256 hashes, which is
  what makes server checkpoints and snapshot capture near-free on a
  slowly changing device.

Every backend is bit-identical at the device interface: same bytes out,
same fill semantics for never-written and discarded blocks, and zero
interaction with clocks or RNG streams. The equivalence battery in
``tests/test_extent_equivalence.py`` asserts exactly that. Which backend
holds a device's bytes is the device owner's choice (the daemon builds
its phones on :class:`CowOverlayStore`); there is no process-wide
switch.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Dict, Optional

import numpy as np

#: Devices larger than this many blocks get a sparse :class:`RamStore`,
#: so full phone-scale partitions (the Nexus 4's 13.7 GiB userdata) cost
#: memory in proportion to the blocks actually written.
SPARSE_THRESHOLD = 65536


class FrozenImage:
    """An immutable, content-addressed image of a whole store.

    ``blocks[i]`` is the i-th block's bytes (identical blocks interned to
    one object, the same trick :func:`repro.blockdev.snapshot.capture`
    uses) and ``hashes[i]`` its SHA-256 hex digest. Frozen images are the
    currency of O(dirty) checkpointing: a new freeze reuses both the
    bytes and the hash of every unchanged block.
    """

    __slots__ = ("blocks", "hashes", "block_size")

    def __init__(self, blocks: tuple, hashes: tuple, block_size: int) -> None:
        self.blocks = blocks
        self.hashes = hashes
        self.block_size = block_size

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def _uniform_image(
    fill_block: bytes, num_blocks: int, block_size: int
) -> FrozenImage:
    """A frozen image of a factory-fresh device: one interned fill block."""
    h = hashlib.sha256(fill_block).hexdigest()
    return FrozenImage(
        (fill_block,) * num_blocks, (h,) * num_blocks, block_size
    )


class BlockStore(ABC):
    """Bulk random-access storage for whole-block extents.

    The contract mirrors the out-of-band half of a block device: reads
    and writes move whole extents of ``block_size`` bytes, blocks never
    written (or discarded) read back as the fill pattern, and nothing
    here touches simulated time.
    """

    def __init__(
        self, num_blocks: int, block_size: int, fill: int = 0
    ) -> None:
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.fill_block = bytes([fill]) * block_size

    # -- the extent I/O surface -------------------------------------------

    @abstractmethod
    def read_extent(self, start: int, count: int) -> bytes:
        """Return ``count`` consecutive blocks starting at ``start``."""

    @abstractmethod
    def write_extent(self, start: int, data: bytes) -> None:
        """Store ``data`` (a whole number of blocks) at ``start``."""

    @abstractmethod
    def discard_extent(self, start: int, count: int) -> None:
        """Restore the fill pattern over ``count`` blocks (TRIM)."""

    # -- content addressing ------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the full image, streamed ~1 MiB at a time."""
        h = hashlib.sha256()
        chunk = max(1, (1 << 20) // self.block_size)
        start = 0
        while start < self.num_blocks:
            take = min(chunk, self.num_blocks - start)
            h.update(self.read_extent(start, take))
            start += take
        return h.hexdigest()

    def freeze(self) -> Optional[FrozenImage]:
        """A content-addressed image of the current state, or ``None``.

        Backends without incremental hashing return ``None`` and callers
        fall back to a full scan; :class:`CowOverlayStore` returns a
        frozen image built in O(dirty blocks).
        """
        return None

    @property
    def sparse(self) -> bool:
        """True when unwritten blocks occupy no backing memory."""
        return False


class RamStore(BlockStore):
    """Process-memory backing: one flat buffer, or a dict in sparse mode.

    Dense mode uses a NumPy ``uint8`` array (zero-copy slicing). Sparse
    mode keeps only written blocks, keyed by block number, so phone-scale
    partitions cost memory proportional to their churn.
    """

    def __init__(
        self,
        num_blocks: int,
        block_size: int,
        fill: int = 0,
        sparse: bool = False,
    ) -> None:
        super().__init__(num_blocks, block_size, fill)
        self._sparse = sparse
        if sparse:
            self._blocks: Dict[int, bytes] = {}
            self._buf = None
        else:
            self._buf = np.full(num_blocks * block_size, fill, dtype=np.uint8)

    @property
    def sparse(self) -> bool:
        return self._sparse

    def read_extent(self, start: int, count: int) -> bytes:
        if self._sparse:
            get = self._blocks.get
            fill = self.fill_block
            return b"".join(get(start + i, fill) for i in range(count))
        lo = start * self.block_size
        hi = lo + count * self.block_size
        return self._buf[lo:hi].tobytes()

    def write_extent(self, start: int, data: bytes) -> None:
        bs = self.block_size
        if self._sparse:
            blocks = self._blocks
            for i in range(len(data) // bs):
                blocks[start + i] = bytes(data[i * bs : (i + 1) * bs])
            return
        lo = start * bs
        self._buf[lo : lo + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def discard_extent(self, start: int, count: int) -> None:
        if self._sparse:
            pop = self._blocks.pop
            for i in range(count):
                pop(start + i, None)
            return
        self.write_extent(start, self.fill_block * count)


class CowOverlayStore(BlockStore):
    """A frozen base image plus a dirty-block overlay.

    Reads come from the overlay when a block is dirty and from the base
    otherwise; writes land in the overlay (a write restoring a block to
    its base content *cleans* it, keeping the dirty set minimal — a full
    image restore of a mostly-unchanged device stays cheap).
    :meth:`freeze` promotes the overlay into a new base, hashing only
    the dirty blocks and interning by content hash, and returns the new
    base as a :class:`FrozenImage`.
    """

    def __init__(
        self,
        num_blocks: int,
        block_size: int,
        fill: int = 0,
        base: Optional[FrozenImage] = None,
    ) -> None:
        super().__init__(num_blocks, block_size, fill)
        if base is None:
            base = _uniform_image(self.fill_block, num_blocks, block_size)
        if base.num_blocks != num_blocks or base.block_size != block_size:
            raise ValueError("base image geometry does not match store")
        self._base = base
        self._overlay: Dict[int, bytes] = {}

    @property
    def sparse(self) -> bool:
        return True

    @property
    def dirty_blocks(self) -> int:
        """Number of blocks that differ from the last frozen base."""
        return len(self._overlay)

    def read_extent(self, start: int, count: int) -> bytes:
        overlay = self._overlay
        base = self._base.blocks
        return b"".join(
            overlay.get(start + i, base[start + i]) for i in range(count)
        )

    def write_extent(self, start: int, data: bytes) -> None:
        bs = self.block_size
        overlay = self._overlay
        base = self._base.blocks
        for i in range(len(data) // bs):
            block = start + i
            chunk = bytes(data[i * bs : (i + 1) * bs])
            if chunk == base[block]:
                overlay.pop(block, None)
            else:
                overlay[block] = chunk

    def discard_extent(self, start: int, count: int) -> None:
        self.write_extent(start, self.fill_block * count)

    def freeze(self) -> FrozenImage:
        """Checkpoint: O(dirty) new base reusing clean blocks and hashes."""
        if not self._overlay:
            return self._base
        blocks = list(self._base.blocks)
        hashes = list(self._base.hashes)
        interned: Dict[str, bytes] = {}
        for block, data in self._overlay.items():
            h = hashlib.sha256(data).hexdigest()
            blocks[block] = interned.setdefault(h, data)
            hashes[block] = h
        self._base = FrozenImage(
            tuple(blocks), tuple(hashes), self.block_size
        )
        self._overlay = {}
        return self._base

