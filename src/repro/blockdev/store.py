"""The copy-on-write medium under every block device.

:class:`CowOverlayStore` is where a
:class:`~repro.blockdev.device.RAMBlockDevice` keeps its bytes: a flat
array of fixed-size blocks with bulk extent accessors and no notion of
clocks, stats or costs — all of that lives in the device layer.

The store is a frozen, content-addressed base image plus a dirty-block
overlay. A factory-fresh store has no base at all: every block it was
never handed reads back as the fill block, so a store holds only the
blocks written to it, whatever the size of the device.
:meth:`~CowOverlayStore.freeze` produces a :class:`FrozenImage` that
hashes only the blocks dirtied since the previous freeze: unchanged
blocks reuse the base's interned bytes *and* their cached SHA-256
hashes, which is what makes server checkpoints and snapshot capture
near-free on a slowly changing device.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from itertools import repeat
from typing import Dict, Optional

#: Devices larger than this many blocks count as sparse
#: (:attr:`~repro.blockdev.device.RAMBlockDevice.sparse`): bulk passes
#: over them, such as the hidden-volume baseline's random fill, skip
#: materializing every block's content, so full phone-scale partitions
#: (the Nexus 4's 13.7 GiB userdata) stay cheap to set up.
SPARSE_THRESHOLD = 65536

_first = operator.itemgetter(0)


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


class CowOverlayStore:
    """A frozen base image plus a dirty-block overlay.

    Reads come from the overlay when a block is dirty and from the base
    otherwise (the fill block until the first :meth:`freeze`); writes
    land in the overlay. A write restoring a block to its base content
    *cleans* it, keeping the dirty set minimal: a full image restore of a
    mostly-unchanged device stays cheap, and discarded blocks of a fresh
    store hold no memory. :meth:`freeze` promotes the overlay into a new
    base, hashing only the dirty blocks and interning by content hash,
    and returns the new base as a :class:`FrozenImage`.
    """

    def __init__(
        self,
        num_blocks: int,
        block_size: int,
        fill: int = 0,
        base: Optional[FrozenImage] = None,
    ) -> None:
        if base is not None and (
            base.num_blocks != num_blocks or base.block_size != block_size
        ):
            raise ValueError("base image geometry does not match store")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.fill_block = bytes([fill]) * block_size
        #: ``None`` until the first freeze: every clean block is the fill
        self._base = base
        self._overlay: Dict[int, bytes] = {}
        # splits an extent into one-block 1-tuples in C, without a
        # Python-level slice per block
        self._unpack_blocks = struct.Struct(f"{block_size}s").iter_unpack

    @property
    def dirty_blocks(self) -> int:
        """Number of blocks that differ from the last frozen base."""
        return len(self._overlay)

    def _clean(self, start: int, count: int):
        """The base content of *count* blocks from *start*."""
        if self._base is None:
            return repeat(self.fill_block, count)
        return self._base.blocks[start : start + count]

    # -- the extent I/O surface -------------------------------------------

    def read_extent(self, start: int, count: int) -> bytes:
        """Return ``count`` consecutive blocks starting at ``start``."""
        return b"".join(
            map(
                self._overlay.get,
                range(start, start + count),
                self._clean(start, count),
            )
        )

    def write_extent(self, start: int, data: bytes) -> None:
        """Store ``data`` (a whole number of blocks) at ``start``."""
        bs = self.block_size
        overlay = self._overlay
        data = bytes(data)
        if len(data) == bs:  # small synced I/O: one block per call
            base = self._base
            clean = self.fill_block if base is None else base.blocks[start]
            if data == clean:
                overlay.pop(start, None)
            else:
                overlay[start] = data
            return
        chunks = list(map(_first, self._unpack_blocks(data)))
        blocks = range(start, start + len(chunks))
        if not any(map(operator.eq, chunks, self._clean(start, len(chunks)))):
            overlay.update(zip(blocks, chunks))
            return
        for block, chunk, clean in zip(
            blocks, chunks, self._clean(start, len(chunks))
        ):
            if chunk == clean:
                overlay.pop(block, None)
            else:
                overlay[block] = chunk

    def discard_extent(self, start: int, count: int) -> None:
        """Restore the fill pattern over ``count`` blocks (TRIM)."""
        self.write_extent(start, self.fill_block * count)

    # -- content addressing ------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the full image, streamed ~1 MiB at a time."""
        h = hashlib.sha256()
        chunk = max(1, (1 << 20) // self.block_size)
        for start in range(0, self.num_blocks, chunk):
            h.update(
                self.read_extent(start, min(chunk, self.num_blocks - start))
            )
        return h.hexdigest()

    def freeze(self) -> FrozenImage:
        """Checkpoint: a new base reusing clean blocks and their hashes.

        Only dirty blocks are hashed. The first freeze of a fresh store
        also lays out the base itself: one interned fill block.
        """
        if self._base is None:
            fill = self.fill_block
            blocks = [fill] * self.num_blocks
            hashes = [hashlib.sha256(fill).hexdigest()] * self.num_blocks
        elif not self._overlay:
            return self._base
        else:
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
