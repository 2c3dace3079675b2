"""The per-block cost oracle: deliver every extent one block at a time.

The shipped stack moves multi-block requests down as whole extents and
replays upper layers' per-block charges at the leaf. This oracle
reproduces the historical block-at-a-time ordering instead: inside
:func:`per_block_baseline` every ``read_blocks``/``write_blocks`` call of
more than one block, on any device and at every layer, decomposes
through :func:`~repro.blockdev.device.replay_per_block` into single-block
calls. Fidelity tests compare device images, simulated clocks and
IOStats between the two deliveries; the hotpath and store benchmarks
time it as their wall-clock baseline.

It works by patching the two entry points on :class:`BlockDevice` (no
device class overrides them), so it is process-wide for its duration:
use it from one thread at a time.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.blockdev.device import BlockDevice, ExtentCosts, replay_per_block


@contextlib.contextmanager
def per_block_baseline() -> Iterator[None]:
    """Force block-at-a-time I/O ordering for the enclosed code."""
    read_blocks = BlockDevice.read_blocks
    write_blocks = BlockDevice.write_blocks

    def read_per_block(
        self, start: int, count: int, costs: Optional[ExtentCosts] = None
    ) -> bytes:
        if count <= 1:
            return read_blocks(self, start, count, costs)
        return b"".join(
            self.read_blocks(start + i, 1)
            for i in replay_per_block(costs, count)
        )

    def write_per_block(
        self, start: int, data: bytes, costs: Optional[ExtentCosts] = None
    ) -> None:
        bs = self.block_size
        if len(data) <= bs or len(data) % bs:
            write_blocks(self, start, data, costs)
            return
        for i in replay_per_block(costs, len(data) // bs):
            self.write_blocks(start + i, data[i * bs : (i + 1) * bs])

    BlockDevice.read_blocks = read_per_block
    BlockDevice.write_blocks = write_per_block
    try:
        yield
    finally:
        BlockDevice.read_blocks = read_blocks
        BlockDevice.write_blocks = write_blocks
