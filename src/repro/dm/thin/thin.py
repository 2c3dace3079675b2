"""The thin target: a virtual volume backed by a thin pool."""

from __future__ import annotations

from typing import Optional

from repro.blockdev.device import BlockDevice, ExtentCosts
from repro.dm.thin.metadata import VolumeRecord
from repro.dm.thin.pool import ThinPool


class ThinDevice(BlockDevice):
    """A thin volume exposed as a block device.

    Reads of never-written blocks return zeroes (thin volumes occupy no
    space until written — the property MobiCeal exploits to hide a volume
    among dummy volumes at zero cost). Writes provision data blocks from the
    pool, firing the dummy-write hook when one is installed.
    """

    def __init__(self, pool: ThinPool, record: VolumeRecord) -> None:
        super().__init__(record.virtual_blocks, pool.block_size)
        self._pool = pool
        self._record = record

    @property
    def vol_id(self) -> int:
        return self._record.vol_id

    @property
    def pool(self) -> ThinPool:
        return self._pool

    @property
    def provisioned_blocks(self) -> int:
        return self._record.provisioned_blocks

    def _read_extent(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        return self._pool.read_extent(self._record, start, count, costs)

    def _write_extent(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        self._pool.write_extent(self._record, start, data, costs)

    # Out-of-band access resolves mappings through the pool like normal
    # I/O does (a thin volume has no medium of its own to image); pokes
    # provision blocks and fire the dummy-write hook, as they always have.
    def peek_extent(self, start: int, count: int) -> bytes:
        record = self._record
        read_mapped = self._pool.read_mapped
        return b"".join(read_mapped(record, start + i) for i in range(count))

    def poke_extent(self, start: int, data: bytes) -> None:
        bs = self._block_size
        record = self._record
        write_mapped = self._pool.write_mapped
        for i in range(len(data) // bs):
            write_mapped(record, start + i, data[i * bs : (i + 1) * bs])

    def _discard(self, block: int) -> None:
        self._pool.discard_mapped(self._record, block)

    def _flush(self) -> None:
        self._pool.flush()

