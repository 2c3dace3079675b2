"""List-backed allocators, the oracles for :mod:`repro.dm.thin.allocation`.

Same contract as the shipped NumPy-backed classes: the same blocks, the
same ``free_count`` and the same RNG draws for any sequence of
``allocate`` / ``free`` / ``mark_allocated`` calls.
"""

from typing import Optional

from repro.crypto.rng import Rng
from repro.errors import PoolExhaustedError
from tests.oracles.bitmap import iter_allocated


def _used_flags(num_blocks: int, bitmap: Optional[bytes]) -> bytearray:
    used = bytearray(num_blocks)
    if bitmap is not None:
        for block in iter_allocated(bitmap, num_blocks):
            used[block] = 1
    return used


class SequentialAllocator:
    """First-free scan from a hint, wrapping once."""

    def __init__(
        self, num_blocks: int, allocated_bitmap: Optional[bytes] = None
    ) -> None:
        self.num_blocks = num_blocks
        self._used = _used_flags(num_blocks, allocated_bitmap)
        self._free = num_blocks - sum(self._used)
        self._hint = 0

    def allocate(self) -> int:
        if self._free == 0:
            raise PoolExhaustedError("no free data blocks")
        order = list(range(self._hint, self.num_blocks)) + list(
            range(self._hint)
        )
        candidate = next(b for b in order if not self._used[b])
        self._used[candidate] = 1
        self._free -= 1
        self._hint = (candidate + 1) % self.num_blocks
        return candidate

    def free(self, block: int) -> None:
        if not self._used[block]:
            raise ValueError(f"block {block} is not allocated")
        self._used[block] = 0
        self._free += 1

    def mark_allocated(self, block: int) -> None:
        if self._used[block]:
            raise ValueError(f"block {block} is already allocated")
        self._used[block] = 1
        self._free -= 1

    @property
    def free_count(self) -> int:
        return self._free


class RandomAllocator:
    """MobiCeal's draw: ``i`` uniform in ``[1, x]``, take the i-th free block.

    The free list is kept in swap-remove order: removing entry ``k`` moves
    the last entry into slot ``k``; freeing appends.
    """

    def __init__(
        self,
        num_blocks: int,
        rng: Optional[Rng] = None,
        allocated_bitmap: Optional[bytes] = None,
    ) -> None:
        self.num_blocks = num_blocks
        self._rng = rng if rng is not None else Rng()
        used = _used_flags(num_blocks, allocated_bitmap)
        self._free = [b for b in range(num_blocks) if not used[b]]

    def allocate(self) -> int:
        x = len(self._free)
        if x == 0:
            raise PoolExhaustedError("no free data blocks")
        i = self._rng.randint(1, x)
        return self._swap_remove(i - 1)

    def free(self, block: int) -> None:
        if block in self._free:
            raise ValueError(f"block {block} is not allocated")
        self._free.append(block)

    def mark_allocated(self, block: int) -> None:
        if block not in self._free:
            raise ValueError(f"block {block} is already allocated")
        self._swap_remove(self._free.index(block))

    def _swap_remove(self, index: int) -> int:
        block = self._free[index]
        self._free[index] = self._free[-1]
        self._free.pop()
        return block

    @property
    def free_count(self) -> int:
        return len(self._free)
