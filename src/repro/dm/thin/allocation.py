"""Data-block allocation strategies for the thin pool.

Stock dm-thin allocates data blocks (roughly) sequentially; MobiCeal's
kernel patch replaces this with *random allocation* (Sec. IV-B / V-A): get
the number of free blocks ``x``, draw ``i`` uniform in ``[1, x]``, and take
the i-th free block. Random allocation is what stops a multi-snapshot
adversary from reading hidden-file size out of spatial clustering.

Both strategies keep their free-structure synchronized with the pool's
global bitmap through :meth:`mark_allocated` / :meth:`free`, and back it
with NumPy arrays, so phone-scale pools (millions of blocks) initialize
in one vector pass and allocate in O(1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.crypto.rng import Rng
from repro.errors import PoolExhaustedError


def _unpack_bitmap(num_blocks: int, bitmap: bytes):
    """Bitmap bytes -> numpy boolean array of length *num_blocks*."""
    bits = np.unpackbits(
        np.frombuffer(bitmap, dtype=np.uint8), bitorder="little"
    )[:num_blocks]
    return bits.astype(bool)


class Allocator(ABC):
    """Allocation strategy over a pool of ``num_blocks`` data blocks."""

    def __init__(self, num_blocks: int) -> None:
        self.num_blocks = num_blocks

    @abstractmethod
    def allocate(self) -> int:
        """Pick and claim a free block; raises :class:`PoolExhaustedError`."""

    @abstractmethod
    def free(self, block: int) -> None:
        """Return *block* to the free pool."""

    @abstractmethod
    def mark_allocated(self, block: int) -> None:
        """Claim a specific block (used when loading persisted metadata)."""

    @property
    @abstractmethod
    def free_count(self) -> int: ...

    @property
    def name(self) -> str:
        return type(self).__name__.replace("Allocator", "").lower()


class SequentialAllocator(Allocator):
    """Stock thin-provisioning behaviour: first-free scan with a hint.

    This is the strategy the paper's deniability analysis attacks (the
    ``Dv2 || Dv1 || Dv2 ...`` layout example); it is kept both as the
    baseline for MobiPluto-style systems and for the ablation bench.
    """

    def __init__(
        self, num_blocks: int, allocated_bitmap: Optional[bytes] = None
    ) -> None:
        super().__init__(num_blocks)
        if allocated_bitmap is None:
            self._used = np.zeros(num_blocks, dtype=bool)
        else:
            self._used = _unpack_bitmap(num_blocks, allocated_bitmap).copy()
        self._free = int(num_blocks - np.count_nonzero(self._used))
        self._hint = 0

    def _scan_from_hint(self) -> int:
        """First free block at/after the hint, wrapping once (slow path)."""
        tail = np.nonzero(~self._used[self._hint :])[0]
        if tail.size:
            return self._hint + int(tail[0])
        return int(np.nonzero(~self._used[: self._hint])[0][0])

    def allocate(self) -> int:
        if self._free == 0:
            raise PoolExhaustedError("no free data blocks")
        # fast path: fresh sequential allocation lands exactly on the hint
        if not self._used[self._hint]:
            candidate = self._hint
        else:
            # slow path (after frees): scan forward, wrapping once
            candidate = self._scan_from_hint()
        self._used[candidate] = True
        self._free -= 1
        self._hint = (candidate + 1) % self.num_blocks
        return candidate

    def free(self, block: int) -> None:
        if not self._used[block]:
            raise ValueError(f"block {block} is not allocated")
        self._used[block] = False
        self._free += 1

    def mark_allocated(self, block: int) -> None:
        if self._used[block]:
            raise ValueError(f"block {block} is already allocated")
        self._used[block] = True
        self._free -= 1

    @property
    def free_count(self) -> int:
        return self._free


class RandomAllocator(Allocator):
    """MobiCeal's random allocation, O(1) per operation.

    Maintains the free set as an array with swap-removal plus a position
    index, so drawing "the i-th free block" is constant time. The draw is
    exactly the paper's: ``i`` uniform in ``[1, x]`` where ``x`` is the
    current number of free blocks, one ``randint`` per allocation. The
    draw order and swap-remove semantics fix the block sequence for a
    given seed; ``tests/oracles`` pins them against a list-backed twin.
    """

    def __init__(
        self,
        num_blocks: int,
        rng: Optional[Rng] = None,
        allocated_bitmap: Optional[bytes] = None,
    ) -> None:
        super().__init__(num_blocks)
        self._rng = rng if rng is not None else Rng()
        self._free_arr = np.empty(num_blocks, dtype=np.int64)
        self._pos = np.full(num_blocks, -1, dtype=np.int64)
        if allocated_bitmap is None:
            self._free_arr[:] = np.arange(num_blocks, dtype=np.int64)
            self._count = num_blocks
        else:
            used = _unpack_bitmap(num_blocks, allocated_bitmap)
            free_blocks = np.nonzero(~used)[0].astype(np.int64)
            self._count = int(free_blocks.size)
            self._free_arr[: self._count] = free_blocks
        self._pos[self._free_arr[: self._count]] = np.arange(
            self._count, dtype=np.int64
        )

    def allocate(self) -> int:
        x = self._count
        if x == 0:
            raise PoolExhaustedError("no free data blocks")
        i = self._rng.randint(1, x)
        block = int(self._free_arr[i - 1])
        self._swap_remove(i - 1)
        return block

    def free(self, block: int) -> None:
        if self._pos[block] != -1:
            raise ValueError(f"block {block} is not allocated")
        self._free_arr[self._count] = block
        self._pos[block] = self._count
        self._count += 1

    def mark_allocated(self, block: int) -> None:
        index = int(self._pos[block])
        if index == -1:
            raise ValueError(f"block {block} is already allocated")
        self._swap_remove(index)

    def _swap_remove(self, index: int) -> None:
        block = int(self._free_arr[index])
        last = self._free_arr[self._count - 1]
        self._free_arr[index] = last
        self._pos[last] = index
        self._count -= 1
        self._pos[block] = -1

    @property
    def free_count(self) -> int:
        return self._count


def make_allocator(
    strategy: str,
    num_blocks: int,
    rng: Optional[Rng] = None,
    allocated_bitmap: Optional[bytes] = None,
) -> Allocator:
    """Factory keyed by name: ``"sequential"`` or ``"random"``."""
    if strategy == "sequential":
        return SequentialAllocator(num_blocks, allocated_bitmap=allocated_bitmap)
    if strategy == "random":
        return RandomAllocator(num_blocks, rng=rng, allocated_bitmap=allocated_bitmap)
    raise ValueError(f"unknown allocation strategy: {strategy!r}")
