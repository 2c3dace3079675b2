"""I/O tracing (a blktrace analog).

A :class:`TracingDevice` wraps any block device and records every
operation with its simulated timestamp. Traces feed the access-pattern
analyses in the adversary toolkit and make storage-stack debugging
tractable: you can ask "what did the pool actually write during that
switch?" instead of guessing.

Every recorded :class:`TraceEvent` is also published to the shared
``repro.obs`` sink (when a recorder is active) and to an optional local
*sink* callback, so block traces land on the same timeline as spans and
metrics. The list-based API (:attr:`TracingDevice.events` plus the
analysis helpers) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro import obs
from repro.blockdev.clock import SimClock
from repro.blockdev.device import BlockDevice, ExtentCosts, replay_per_block
from repro.blockdev.store import FrozenImage


@dataclass(frozen=True)
class TraceEvent:
    """One traced block operation."""

    op: str          # "read" | "write" | "discard" | "flush"
    block: int       # -1 for flush
    at: float        # simulated time


class TracingDevice(BlockDevice):
    """Pass-through device that records every operation."""

    def __init__(
        self,
        base: BlockDevice,
        clock: Optional[SimClock] = None,
        sink: Optional[Callable[[TraceEvent], None]] = None,
    ) -> None:
        super().__init__(base.num_blocks, base.block_size)
        self._base = base
        self._clock = clock
        self._sink = sink
        self.events: List[TraceEvent] = []

    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def _record(self, op: str, block: int) -> None:
        event = TraceEvent(op=op, block=block, at=self._now())
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)
        obs.publish_io(event)

    def _discard(self, block: int) -> None:
        self._base.discard(block)
        self._record("discard", block)

    def _flush(self) -> None:
        self._base.flush()
        self._record("flush", -1)

    def _read_extent(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        # With a clock attached every event needs the timestamp of *its own*
        # block's completion, so the extent must decompose here; without one
        # all events stamp 0.0 and the extent can pass through whole.
        if self._clock is not None:
            parts = []
            for i in replay_per_block(costs, count):
                parts.append(self._base.read_block(start + i))
                self._record("read", start + i)
            return b"".join(parts)
        data = self._base.read_blocks(start, count, costs)
        for i in range(count):
            self._record("read", start + i)
        return data

    def _write_extent(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        if self._clock is not None:
            bs = self.block_size
            for i in replay_per_block(costs, len(data) // bs):
                self._base.write_block(start + i, data[i * bs : (i + 1) * bs])
                self._record("write", start + i)
            return
        self._base.write_blocks(start, data, costs)
        for i in range(len(data) // self.block_size):
            self._record("write", start + i)

    # out-of-band access is deliberately NOT traced (the adversary's
    # snapshot capture must not perturb the trace)
    def peek_extent(self, start: int, count: int) -> bytes:
        return self._base.peek_extent(start, count)

    def poke_extent(self, start: int, data: bytes) -> None:
        self._base.poke_extent(start, data)

    def freeze_image(self) -> Optional[FrozenImage]:
        return self._base.freeze_image()

    def clear(self) -> None:
        self.events.clear()

    # -- analysis helpers -----------------------------------------------------

    def ops(self, kind: Optional[str] = None) -> List[TraceEvent]:
        if kind is None:
            return list(self.events)
        return [e for e in self.events if e.op == kind]

    def sequentiality(self, kind: str = "write") -> float:
        """Fraction of *kind* ops that continue where the previous ended.

        The spatial-locality measure the paper's random-allocation argument
        is about: sequential-allocation stacks score near 1 for fresh
        files, MobiCeal's random allocation near 0. Traces with fewer than
        two ops carry no adjacency evidence at all and report 0.0 — never
        "perfectly sequential", which would skew allocation-randomness
        ablations on tiny workloads.
        """
        ops = self.ops(kind)
        if len(ops) < 2:
            return 0.0
        sequential = sum(
            1 for a, b in zip(ops, ops[1:]) if b.block == a.block + 1
        )
        return sequential / (len(ops) - 1)
