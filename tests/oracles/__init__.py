"""Reference implementations the shipped NumPy code is tested against.

Each oracle is a plain-Python twin of one shipped site, written for
obviousness rather than speed: list-backed allocators, bit-by-bit bitmap
scans and a big-int XOR. ``tests/test_oracles.py`` drives the shipped
code and its oracle from the same inputs and requires identical results,
including RNG draw order. :func:`per_block_baseline` is the cost oracle
for extent I/O: block-at-a-time delivery through the whole stack.
:func:`nearest_rank` is the counting reference for the one percentile
definition, :func:`repro.util.stats.percentile`.
"""

from tests.oracles.allocation import RandomAllocator, SequentialAllocator
from tests.oracles.bitmap import iter_allocated, iter_free, popcount
from tests.oracles.per_block import per_block_baseline
from tests.oracles.percentile import nearest_rank
from tests.oracles.xor import xor_bytes

__all__ = [
    "RandomAllocator",
    "SequentialAllocator",
    "iter_allocated",
    "iter_free",
    "nearest_rank",
    "per_block_baseline",
    "popcount",
    "xor_bytes",
]
