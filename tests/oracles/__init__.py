"""Reference implementations the shipped NumPy code is tested against.

Each oracle is a plain-Python twin of one shipped site, written for
obviousness rather than speed: list-backed allocators, bit-by-bit bitmap
scans and a big-int XOR. ``tests/test_oracles.py`` drives the shipped
code and its oracle from the same inputs and requires identical results,
including RNG draw order.
"""

from tests.oracles.allocation import RandomAllocator, SequentialAllocator
from tests.oracles.bitmap import iter_allocated, iter_free, popcount
from tests.oracles.xor import xor_bytes

__all__ = [
    "RandomAllocator",
    "SequentialAllocator",
    "iter_allocated",
    "iter_free",
    "popcount",
    "xor_bytes",
]
