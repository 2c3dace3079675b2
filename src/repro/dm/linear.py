"""The dm-linear target."""

from __future__ import annotations

from typing import Optional

from repro.blockdev.device import BlockDevice, ExtentCosts
from repro.dm.core import Target
from repro.errors import TableError


class LinearTarget(Target):
    """Map a segment 1:1 onto a contiguous range of a lower device."""

    def __init__(self, device: BlockDevice, offset: int, num_blocks: int) -> None:
        if offset < 0 or offset + num_blocks > device.num_blocks:
            raise TableError(
                f"linear target [{offset}, {offset + num_blocks}) exceeds lower "
                f"device of {device.num_blocks} blocks"
            )
        super().__init__(num_blocks, device.block_size)
        self._device = device
        self._offset = offset

    def read_extent(
        self, block: int, count: int, costs: Optional[ExtentCosts] = None
    ) -> bytes:
        return self._device.read_blocks(self._offset + block, count, costs)

    def write_extent(
        self, block: int, data: bytes, costs: Optional[ExtentCosts] = None
    ) -> None:
        self._device.write_blocks(self._offset + block, data, costs)

    def discard(self, block: int) -> None:
        self._device.discard(self._offset + block)

    def flush(self) -> None:
        self._device.flush()
