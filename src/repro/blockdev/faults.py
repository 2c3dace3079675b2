"""Fault injection for the block layer.

Real eMMC parts fail in characteristic ways, and MobiCeal's crash-safety
argument (shadow-paged thin metadata, journaled filesystems, one-way
switching) only holds if the stack survives them. This module provides the
machinery to *provoke* those failures deterministically:

* :class:`FaultyBlockDevice` — a pass-through wrapper (like
  :class:`~repro.blockdev.trace.TracingDevice`) that can cut power at a
  chosen write index, tear the interrupted write at 512-byte-sector
  granularity, drop unflushed writes from a simulated volatile cache,
  inject transient I/O errors, and flip bits on read.
* :class:`FaultPlan` — a seeded, declarative description of which faults
  to inject; the same plan always produces the same failure.
* :func:`crash_point` / :func:`inject` — a registry of *named* interior
  crash sites (``"thin.meta.area-written"``, ``"ext4.journal.committed"``,
  ...) so recovery code can be driven to a specific half-finished state
  without counting raw write indices.

See ``docs/fault_model.md`` for the fault taxonomy and the crash-point
naming convention.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.blockdev.device import (
    BlockDevice,
    ExtentCosts,
    in_recovery,
    replay_per_block,
)
from repro.blockdev.store import FrozenImage
from repro.crypto.rng import Rng
from repro.errors import PowerCutError, TransientIOError

#: Torn writes land at sector granularity: a 4 KiB block is 8 sectors, and
#: a power cut mid-write leaves a prefix of 0..8 sectors on the medium.
SECTOR_SIZE = 512


@dataclass
class FaultPlan:
    """Seeded, declarative description of the faults to inject.

    A plan is single-shot for power faults: after the power cut fires the
    plan is spent (``fired``), and the device stays dead until
    :meth:`FaultyBlockDevice.revive`.
    """

    seed: int = 0
    #: Cut power when the armed device sees this many completed writes
    #: (the write with this index is the one interrupted). ``None`` = never.
    power_cut_after_writes: Optional[int] = None
    #: Whether the interrupted write may land partially (a random sector
    #: prefix). When False the interrupted write is dropped entirely.
    torn_writes: bool = True
    #: Model the eMMC volatile cache: writes since the last flush are
    #: individually kept or dropped at power-cut time, reordering the
    #: effective persistence order inside the flush window.
    volatile_cache: bool = False
    #: Per-write survival probability inside the volatile-cache window.
    survive_probability: float = 0.5
    #: Cut power when this named crash point is reached (see
    #: :func:`crash_point`); composable with ``crash_point_hit``.
    crash_point: Optional[str] = None
    #: Fire on the Nth time the named crash point is hit (1-based).
    crash_point_hit: int = 1
    #: Probability of a transient error per read / per write.
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    #: Cap on injected transient errors (None = unlimited).
    transient_error_budget: Optional[int] = None
    #: Probability that a read returns a buffer with one flipped bit
    #: (the medium itself stays intact — classic read-disturb bit-rot).
    bitrot_rate: float = 0.0
    #: Set once the power fault has fired.
    fired: bool = False

    _rng: Rng = field(init=False, repr=False)
    _devices: List["FaultyBlockDevice"] = field(init=False, repr=False)
    _errors_injected: int = field(init=False, repr=False, default=0)
    _crash_hits: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "write_error_rate", "bitrot_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if not 0.0 <= self.survive_probability <= 1.0:
            raise ValueError(
                f"survive_probability must be in [0, 1], got {self.survive_probability}"
            )
        if self.crash_point_hit < 1:
            raise ValueError("crash_point_hit is 1-based and must be >= 1")
        self._rng = Rng(self.seed).fork("faults")
        self._devices = []

    @property
    def errors_injected(self) -> int:
        return self._errors_injected

    def attach(self, device: "FaultyBlockDevice") -> None:
        if device not in self._devices:
            self._devices.append(device)

    def on_crash_point(self, name: str) -> None:
        """Called by :func:`crash_point`; fires the power cut if it matches."""
        if self.fired or self.crash_point is None or name != self.crash_point:
            return
        self._crash_hits += 1
        if self._crash_hits < self.crash_point_hit:
            return
        self.fired = True
        for device in self._devices:
            device.power_cut()
        raise PowerCutError(
            f"power cut at crash point {name!r} (hit {self._crash_hits})"
        )


class FaultyBlockDevice(BlockDevice):
    """Pass-through wrapper that injects faults per an armed :class:`FaultPlan`.

    While no plan is armed the wrapper is transparent (every op forwards to
    the base device). ``peek``/``poke`` always bypass fault injection: the
    adversary's snapshot capture images the medium itself.
    """

    def __init__(self, base: BlockDevice, plan: Optional[FaultPlan] = None) -> None:
        super().__init__(base.num_blocks, base.block_size)
        self._base = base
        self._plan: Optional[FaultPlan] = None
        self._dead = False
        self._write_index = 0
        # (block, pre-image, intended data) per unflushed write — the
        # volatile-cache window replayed selectively at power-cut time.
        self._inflight: List[Tuple[int, bytes, bytes]] = []
        self.dropped_writes = 0
        self.bitrot_events = 0
        #: (block, surviving sectors) of the last torn write, if any.
        self.torn_write: Optional[Tuple[int, int]] = None
        if plan is not None:
            self.arm(plan)

    # -- plan lifecycle ----------------------------------------------------

    @property
    def base(self) -> BlockDevice:
        return self._base

    @property
    def plan(self) -> Optional[FaultPlan]:
        return self._plan

    @property
    def is_dead(self) -> bool:
        return self._dead

    @property
    def writes_since_arm(self) -> int:
        """Write attempts seen since the last :meth:`arm` call."""
        return self._write_index

    def arm(self, plan: FaultPlan) -> None:
        """Install *plan* and reset the write index; faults start now."""
        self._plan = plan
        self._write_index = 0
        plan.attach(self)

    def disarm(self) -> None:
        """Remove the plan; the wrapper becomes transparent again."""
        self._plan = None

    def revive(self, disarm: bool = True) -> None:
        """Power the medium back on (the recovery boot that follows a cut)."""
        self._dead = False
        self._inflight.clear()
        if disarm:
            self._plan = None

    # -- fault machinery ---------------------------------------------------

    def _check_alive(self) -> None:
        if self._dead:
            raise PowerCutError("device has lost power; call revive() first")

    def _maybe_transient(self, rate: float, op: str, block: int) -> None:
        plan = self._plan
        if plan is None or rate <= 0.0:
            return
        budget = plan.transient_error_budget
        if budget is not None and plan._errors_injected >= budget:
            return
        if plan._rng.random() < rate:
            plan._errors_injected += 1
            raise TransientIOError(f"transient {op} error at block {block}")

    def power_cut(
        self, interrupted: Optional[Tuple[int, bytes]] = None
    ) -> None:
        """Apply the power-cut outcome to the medium and kill the device.

        *interrupted* is the write in flight at the instant of the cut; per
        the plan it lands torn (a random sector prefix) or not at all.
        Unflushed writes in the volatile-cache window are individually kept
        or dropped, modelling the eMMC reordering its cache arbitrarily.
        """
        plan = self._plan
        rng = plan._rng if plan is not None else Rng(0)
        if plan is not None and plan.volatile_cache and self._inflight:
            state: Dict[int, bytes] = {}
            for block, before, after in self._inflight:
                state.setdefault(block, before)
                if rng.random() < plan.survive_probability:
                    state[block] = after
                else:
                    self.dropped_writes += 1
            for block, data in state.items():
                self._base.poke(block, data)
        self._inflight.clear()
        if interrupted is not None and plan is not None and plan.torn_writes:
            block, data = interrupted
            sectors = self._block_size // SECTOR_SIZE
            keep = rng.randint(0, sectors)
            old = self._base.peek(block)
            lo = keep * SECTOR_SIZE
            self._base.poke(block, data[:lo] + old[lo:])
            self.torn_write = (block, keep)
        self._dead = True

    # -- I/O hooks ---------------------------------------------------------

    def _read_one(self, block: int) -> bytes:
        """One faulted read: the per-block unit an armed extent decomposes to."""
        self._check_alive()
        self._maybe_transient(
            self._plan.read_error_rate if self._plan else 0.0, "read", block
        )
        data = self._base.read_block(block)
        plan = self._plan
        if (
            plan is not None
            and plan.bitrot_rate > 0.0
            and plan._rng.random() < plan.bitrot_rate
        ):
            bit = plan._rng.randint(0, len(data) * 8 - 1)
            flipped = bytearray(data)
            flipped[bit >> 3] ^= 1 << (bit & 7)
            data = bytes(flipped)
            self.bitrot_events += 1
        return data

    def _write_one(self, block: int, data: bytes) -> None:
        """One faulted write: RNG draws and the write index advance here."""
        self._check_alive()
        plan = self._plan
        if plan is None:
            self._base.write_block(block, data)
            return
        self._maybe_transient(plan.write_error_rate, "write", block)
        index = self._write_index
        self._write_index += 1
        if (
            plan.power_cut_after_writes is not None
            and index >= plan.power_cut_after_writes
            and not plan.fired
        ):
            plan.fired = True
            self.power_cut(interrupted=(block, bytes(data)))
            raise PowerCutError(
                f"power cut during write index {index} (block {block})"
            )
        if plan.volatile_cache:
            self._inflight.append((block, self._base.peek(block), bytes(data)))
        self._base.write_block(block, data)

    def _flush(self) -> None:
        self._check_alive()
        # A completed flush makes the cache window durable.
        self._inflight.clear()
        self._base.flush()

    def _discard(self, block: int) -> None:
        self._check_alive()
        self._base.discard(block)

    def _read_extent(
        self, start: int, count: int, costs: Optional[ExtentCosts]
    ) -> bytes:
        # An armed plan draws RNG and counts write indices per block, so
        # extents must decompose here to keep fault outcomes identical to
        # block-at-a-time delivery. Unarmed, the wrapper is transparent.
        if self._plan is not None:
            blocks: List[bytes] = []
            try:
                for i in replay_per_block(costs, count):
                    blocks.append(self._read_one(start + i))
            except BaseException:
                self._book_landed(len(blocks), write=False)
                raise
            return b"".join(blocks)
        self._check_alive()
        return self._base.read_blocks(start, count, costs)

    def _write_extent(
        self, start: int, data: bytes, costs: Optional[ExtentCosts]
    ) -> None:
        if self._plan is not None:
            bs = self._block_size
            landed = 0
            try:
                for i in replay_per_block(costs, len(data) // bs):
                    self._write_one(start + i, data[i * bs : (i + 1) * bs])
                    landed += 1
            except BaseException:
                self._book_landed(landed, write=True)
                raise
            return
        self._check_alive()
        self._base.write_blocks(start, data, costs)

    def _book_landed(self, count: int, write: bool) -> None:
        """Book the *count* blocks of an extent that landed before a fault.

        :meth:`BlockDevice.write_blocks` and :meth:`~BlockDevice.read_blocks`
        book an extent only once it returns; when a fault cuts it part-way,
        the blocks before the fault are booked here, exactly as
        block-at-a-time delivery would have booked them.
        """
        stats = self.stats
        if write:
            if in_recovery():
                stats.recovery_writes += count
            else:
                stats.writes += count
                stats.bytes_written += count * self._block_size
        elif in_recovery():
            stats.recovery_reads += count
        else:
            stats.reads += count
            stats.bytes_read += count * self._block_size

    # out-of-band access bypasses fault injection entirely: forensic
    # snapshot capture images the medium, dead or not.
    def peek_extent(self, start: int, count: int) -> bytes:
        return self._base.peek_extent(start, count)

    def poke_extent(self, start: int, data: bytes) -> None:
        self._base.poke_extent(start, data)

    def freeze_image(self) -> Optional[FrozenImage]:
        # freeze images the medium itself, exactly like peek_extent does
        return self._base.freeze_image()


# ---------------------------------------------------------------------------
# Crash-point registry
# ---------------------------------------------------------------------------


class CrashPointRegistry:
    """Counts how often each named crash site was reached.

    Useful for discovering which sites a workload exercises (so sweeps can
    target them) and for asserting that instrumentation stays wired up.
    """

    def __init__(self) -> None:
        self._hits: Dict[str, int] = {}

    def note(self, name: str) -> None:
        self._hits[name] = self._hits.get(name, 0) + 1

    def names(self) -> List[str]:
        return sorted(self._hits)

    def hits(self, name: str) -> int:
        return self._hits.get(name, 0)

    def reset(self) -> None:
        self._hits.clear()


#: Process-wide registry of crash points reached while a plan was active.
REGISTRY = CrashPointRegistry()

#: Plans active in the calling context (thread or asyncio task): a plan
#: injected on one thread never fires at a crash point another reaches.
_ACTIVE_PLANS: ContextVar[Tuple[FaultPlan, ...]] = ContextVar(
    "repro_fault_plans", default=()
)


def crash_point(name: str) -> None:
    """Declare a named interior crash site.

    Instrumented code calls this at interesting half-done states (between
    the metadata-area write and the superblock write, after stopping the
    framework mid-switch, ...). With no active plan this is a near-no-op,
    so instrumentation is free in production paths.
    """
    plans = _ACTIVE_PLANS.get()
    if not plans:
        return
    REGISTRY.note(name)
    for plan in plans:
        plan.on_crash_point(name)


@contextlib.contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate *plan* for crash points the calling context reaches
    within the ``with`` body."""
    token = _ACTIVE_PLANS.set(_ACTIVE_PLANS.get() + (plan,))
    try:
        yield plan
    finally:
        _ACTIVE_PLANS.reset(token)
