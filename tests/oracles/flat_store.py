"""A flat in-memory store, the reference for
:class:`repro.blockdev.store.CowOverlayStore`.

One ``bytearray`` holds the whole image, so every block is exactly where
its offset says and there is no overlay, base or fill bookkeeping to get
wrong. It has the shipped store's extent surface and passes as a
device's ``store=``. :meth:`FlatStore.freeze` returns ``None``, so
:func:`repro.blockdev.snapshot.capture` reads a device on it through the
``peek_extent`` scan: the reference for the frozen CoW capture as well.
"""

import hashlib


class FlatStore:
    """``num_blocks`` blocks of ``block_size`` bytes in one buffer."""

    def __init__(self, num_blocks: int, block_size: int, fill: int = 0) -> None:
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.fill_block = bytes([fill]) * block_size
        self._buf = bytearray(self.fill_block) * num_blocks

    def read_extent(self, start: int, count: int) -> bytes:
        lo = start * self.block_size
        return bytes(self._buf[lo : lo + count * self.block_size])

    def write_extent(self, start: int, data: bytes) -> None:
        lo = start * self.block_size
        self._buf[lo : lo + len(data)] = data

    def discard_extent(self, start: int, count: int) -> None:
        self.write_extent(start, self.fill_block * count)

    def digest(self) -> str:
        return hashlib.sha256(self._buf).hexdigest()

    def freeze(self) -> None:
        return None
