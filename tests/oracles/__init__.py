"""Reference implementations the shipped NumPy code is tested against.

Each oracle is a plain-Python twin of one shipped site, written for
obviousness rather than speed: list-backed allocators, bit-by-bit bitmap
scans and a big-int XOR. ``tests/test_oracles.py`` drives the shipped
code and its oracle from the same inputs and requires identical results,
including RNG draw order. :func:`per_block_baseline` is the cost oracle
for extent I/O: block-at-a-time delivery through the whole stack.
:class:`FlatStore` is a one-buffer reference for the copy-on-write
medium every device keeps its bytes in.
:func:`nearest_rank` is the counting reference for the one percentile
definition, :func:`repro.util.stats.percentile`, and
:func:`pbkdf2_reference` is RFC 2898 PBKDF2 written out, checked against
:func:`repro.crypto.kdf.pbkdf2`. :func:`full_encoding` packs and hashes a
thin pool's metadata payload from scratch, the reference for its cached
encoding (``tests/test_thin_payload.py``).
"""

from tests.oracles.allocation import RandomAllocator, SequentialAllocator
from tests.oracles.bitmap import iter_allocated, iter_free, popcount
from tests.oracles.flat_store import FlatStore
from tests.oracles.pbkdf2 import pbkdf2_reference
from tests.oracles.per_block import per_block_baseline
from tests.oracles.percentile import nearest_rank
from tests.oracles.thin_payload import full_encoding, full_payload
from tests.oracles.xor import xor_bytes

__all__ = [
    "FlatStore",
    "RandomAllocator",
    "SequentialAllocator",
    "full_encoding",
    "full_payload",
    "iter_allocated",
    "iter_free",
    "nearest_rank",
    "pbkdf2_reference",
    "per_block_baseline",
    "popcount",
    "xor_bytes",
]
