"""Analytic bulk-pass accounting for whole-partition operations.

Operations such as Android FDE's enable-encryption pass (read, encrypt and
rewrite every block of userdata) or MobiPluto's initial random fill touch
every block of a multi-gigabyte partition. Simulating them block-by-block
is pointless when only their *duration* matters, so these helpers advance
the simulated clock by the closed-form cost of a sequential pass. Callers
that also need the *contents* to change (small devices in adversary
experiments) pass ``materialize=True`` and supply a content function.

This is the standard discrete-event-simulation trade: the timing model is
identical to performing the I/O (sequential per-op + per-byte costs), only
the per-block Python loop is skipped.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.blockdev.clock import SimClock
from repro.blockdev.device import BlockDevice
from repro.blockdev.latency import LatencyModel


def sequential_pass_cost(
    latency: LatencyModel,
    num_blocks: int,
    block_size: int,
    read: bool,
    write: bool,
    extra_byte_cost_s: float = 0.0,
) -> float:
    """Closed-form duration of one sequential pass over *num_blocks*."""
    nbytes = num_blocks * block_size
    cost = nbytes * extra_byte_cost_s
    if read:
        cost += num_blocks * latency.read_cost(block_size, sequential=True)
    if write:
        cost += num_blocks * latency.write_cost(block_size, sequential=True)
    return cost


def bulk_pass(
    device: BlockDevice,
    clock: SimClock,
    latency: LatencyModel,
    read: bool,
    write: bool,
    reason: str,
    extra_byte_cost_s: float = 0.0,
    materialize: bool = False,
    content: Optional[Callable[[int], bytes]] = None,
) -> float:
    """Account (and optionally perform) a sequential whole-device pass.

    When ``materialize`` is true, ``content(block_index)`` supplies the
    bytes written to each block through the out-of-band ``poke`` hook
    (latency already charged analytically, so double-charging is avoided
    by bypassing the device's costed path).

    Returns the simulated duration charged.
    """
    cost = sequential_pass_cost(
        latency, device.num_blocks, device.block_size, read, write,
        extra_byte_cost_s,
    )
    clock.advance(cost, reason)
    if materialize and write:
        if content is None:
            raise ValueError("materialize=True requires a content function")
        # fill in ~1 MiB extents; content() is still called once per block
        # in ascending order
        chunk_blocks = max(1, (1 << 20) // device.block_size)
        block = 0
        while block < device.num_blocks:
            n = min(chunk_blocks, device.num_blocks - block)
            device.poke_extent(
                block, b"".join(content(block + i) for i in range(n))
            )
            block += n
    return cost
