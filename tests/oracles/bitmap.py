"""Bit-by-bit scans, the oracle for :class:`repro.dm.thin.bitmap.Bitmap`.

Bit ``i`` lives in byte ``i >> 3`` at position ``i & 7`` (little-endian
bit order), the layout the thin pool persists.
"""

from typing import Iterator


def iter_allocated(data: bytes, size: int) -> Iterator[int]:
    for i in range(size):
        if data[i >> 3] & (1 << (i & 7)):
            yield i


def iter_free(data: bytes, size: int) -> Iterator[int]:
    for i in range(size):
        if not data[i >> 3] & (1 << (i & 7)):
            yield i


def popcount(data: bytes) -> int:
    return sum(bin(byte).count("1") for byte in data)
