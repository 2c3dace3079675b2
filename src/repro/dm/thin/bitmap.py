"""Global block bitmap.

The paper resolves the public-overwrites-hidden problem by keeping one
global bitmap in the block layer that tracks blocks used by public, hidden
*and* dummy data (Sec. IV-A Q3). This class is that bitmap; the thin pool
persists it in the metadata device.

Bulk queries (iteration, load-time popcount) run on NumPy; single-bit
operations are plain Python. Every set or clear bumps :attr:`Bitmap.version`,
so the metadata encoder can tell an untouched bitmap from a changed one
without comparing bytes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


class Bitmap:
    """A fixed-size bitmap with a maintained free-block count."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"bitmap size must be positive, got {size}")
        self._size = size
        self._bits = bytearray((size + 7) // 8)
        self._allocated = 0
        #: bumped by every :meth:`set` and :meth:`clear`
        self.version = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def allocated_count(self) -> int:
        return self._allocated

    @property
    def free_count(self) -> int:
        return self._size - self._allocated

    def _check(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise IndexError(f"bit {index} out of range for bitmap of {self._size}")

    def test(self, index: int) -> bool:
        """True if *index* is marked allocated."""
        self._check(index)
        return bool(self._bits[index >> 3] & (1 << (index & 7)))

    def set(self, index: int) -> None:
        """Mark *index* allocated; idempotent-safe is a bug, so it raises."""
        self._check(index)
        if self.test(index):
            raise ValueError(f"bit {index} already set")
        self._bits[index >> 3] |= 1 << (index & 7)
        self._allocated += 1
        self.version += 1

    def clear(self, index: int) -> None:
        """Mark *index* free; raises if it was already free."""
        self._check(index)
        if not self.test(index):
            raise ValueError(f"bit {index} already clear")
        self._bits[index >> 3] &= ~(1 << (index & 7)) & 0xFF
        self._allocated -= 1
        self.version += 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._size == other._size and self._bits == other._bits

    def _bits_array(self):
        return np.unpackbits(
            np.frombuffer(bytes(self._bits), dtype=np.uint8), bitorder="little"
        )[: self._size]

    def iter_allocated(self) -> Iterator[int]:
        yield from (int(i) for i in np.nonzero(self._bits_array())[0])

    def iter_free(self) -> Iterator[int]:
        yield from (int(i) for i in np.nonzero(self._bits_array() == 0)[0])

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, size: int, data: bytes) -> "Bitmap":
        expected = (size + 7) // 8
        if len(data) != expected:
            raise ValueError(f"bitmap payload {len(data)} bytes, expected {expected}")
        bm = cls(size)
        bm._bits = bytearray(data)
        # Trailing pad bits beyond `size` must be zero.
        for i in range(size, expected * 8):
            if data[i >> 3] & (1 << (i & 7)):
                raise ValueError("bitmap has pad bits set beyond its size")
        bm._allocated = int(
            np.unpackbits(np.frombuffer(data, dtype=np.uint8)).sum()
        )
        return bm

    def copy(self) -> "Bitmap":
        clone = Bitmap(self._size)
        clone._bits = bytearray(self._bits)
        clone._allocated = self._allocated
        return clone
