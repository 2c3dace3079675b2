"""The workload engine: app-shaped traffic driven through the VFS layer.

A *personality* (see :mod:`repro.workload.personalities`) is a pure
function of ``(vfs, clock, rng)``: it issues logical filesystem operations
through a :class:`WorkloadContext` and never touches wall-clock time or
global state, so the same personality runs identically on Android-FDE,
stock thin and MobiCeal public/hidden stacks — differences in the measured
outcome come from the stack, not the traffic.

The context doubles as the trace recorder: every operation it executes is
also appended (as a :class:`~repro.workload.trace.TraceOp`) to an in-memory
trace, and :func:`replay_trace` re-drives a recorded trace through a fresh
context against any filesystem. Think-time is an explicit operation
(:meth:`WorkloadContext.think`), so replays reproduce the user's idle gaps
without inheriting the recording stack's I/O costs.

Write payloads are regenerated from ``(content_seed, op index)`` on both
record and replay, keeping traces compact and replays byte-identical.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.blockdev.clock import SimClock, Stopwatch
from repro.blockdev.device import IOStats
from repro.crypto.rng import Rng
from repro.errors import WorkloadError
from repro.fs.vfs import Filesystem, parent_and_name
from repro.workload.trace import APPEND, TraceOp

_UNIT = bytes(range(256))


def op_payload(index: int, length: int, content_seed: int = 0) -> bytes:
    """Deterministic write content for op *index* of a trace.

    A rotated byte ramp — compressible-but-not-constant like the bench
    workloads use, cheap to build at any size, and a pure function of
    ``(content_seed, index, length)`` so record and replay agree.
    """
    if length <= 0:
        return b""
    rot = (content_seed * 131 + index * 17) % 256
    unit = _UNIT[rot:] + _UNIT[:rot]
    reps = -(-length // len(unit))
    return (unit * reps)[:length]


class ZipfSampler:
    """Zipf-distributed index sampler over ``0..n-1`` (rank 0 hottest).

    File popularity in real app traffic is heavy-tailed; ``s`` is the
    usual Zipf exponent (``weight(rank) = 1 / (rank+1)**s``). Sampling is
    O(log n) via a precomputed cumulative table.
    """

    def __init__(self, n: int, s: float = 1.1) -> None:
        if n <= 0:
            raise WorkloadError(f"population size must be positive, got {n}")
        if s <= 0:
            raise WorkloadError(f"zipf exponent must be positive, got {s}")
        self.n = n
        self.s = s
        cumulative: List[float] = []
        total = 0.0
        for rank in range(n):
            total += 1.0 / (rank + 1) ** s
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: Rng) -> int:
        """Draw one index using *rng* (uniform inversion over the CDF)."""
        u = rng.random() * self._total
        return min(bisect_left(self._cumulative, u), self.n - 1)


@dataclass(frozen=True)
class WorkloadResult:
    """Outcome of one engine run or trace replay."""

    name: str
    ops: int
    elapsed_s: float
    think_s: float
    bytes_written: int
    bytes_read: int
    syncs: int
    io: IOStats

    @property
    def busy_s(self) -> float:
        """Elapsed simulated time minus explicit think-time: the part the
        storage stack is responsible for, which is what overhead
        comparisons across stacks should use."""
        return max(self.elapsed_s - self.think_s, 0.0)

    @property
    def write_mb_s(self) -> float:
        """Logical write throughput over busy time (decimal MB/s)."""
        if self.busy_s <= 0:
            return 0.0
        return self.bytes_written / self.busy_s / 1e6

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "ops": self.ops,
            "elapsed_s": self.elapsed_s,
            "think_s": self.think_s,
            "busy_s": self.busy_s,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "syncs": self.syncs,
            "write_mb_s": self.write_mb_s,
            "io": self.io.as_dict(),
        }


class WorkloadContext:
    """Executes logical operations against a filesystem and records them.

    The context is what a personality programs against. Every method
    executes the operation on ``fs`` (charging the stack's modeled costs to
    ``clock``), publishes workload counters into the observability spine,
    and — unless recording is disabled — appends the op to :attr:`trace`.
    """

    def __init__(
        self,
        fs: Filesystem,
        clock: SimClock,
        rng: Rng,
        content_seed: int = 0,
        record: bool = True,
    ) -> None:
        self.fs = fs
        self.clock = clock
        self.rng = rng
        self.content_seed = content_seed
        self.trace: List[TraceOp] = []
        self._record = record
        self.ops = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.syncs = 0
        self.think_total = 0.0

    # -- bookkeeping --------------------------------------------------------

    def _log(self, **fields: object) -> None:
        if self._record:
            self.trace.append(TraceOp(at=self._at, **fields))  # type: ignore[arg-type]
        self.ops += 1

    def _begin(self) -> None:
        self._at = self.clock.now

    def _ensure_parent(self, path: str) -> None:
        parent, _name = parent_and_name(path)
        if parent != "/" and not self.fs.exists(parent):
            self.fs.makedirs(parent)

    # -- operations ---------------------------------------------------------

    def mkdir(self, path: str) -> None:
        self._begin()
        if not self.fs.exists(path):
            self.fs.makedirs(path)
        obs.counter_add("workload.ops.mkdir")
        self._log(op="mkdir", path=path)

    def write(
        self,
        path: str,
        length: int,
        offset: Optional[int] = None,
        sync: bool = False,
    ) -> None:
        """Write *length* generated bytes to *path*.

        ``offset=None`` creates/truncates, ``offset=APPEND`` appends at the
        end, any other offset writes in place (creating the file first if
        needed). ``sync=True`` flushes to stable storage afterwards.
        """
        self._begin()
        payload = op_payload(self.ops, length, self.content_seed)
        self._ensure_parent(path)
        if offset is None:
            self.fs.write_file(path, payload)
        elif offset == APPEND:
            self.fs.append_file(path, payload)
        else:
            if not self.fs.exists(path):
                self.fs.write_file(path, b"")
            with self.fs.open(path, "a") as handle:
                handle.seek(offset)
                handle.write(payload)
        if sync:
            self.fs.flush()
            self.syncs += 1
        self.bytes_written += length
        obs.counter_add("workload.ops.write")
        obs.counter_add("workload.bytes_written", length)
        self._log(op="write", path=path, offset=offset, length=length,
                  sync=sync)

    def read(
        self, path: str, length: int = -1, offset: Optional[int] = None
    ) -> int:
        """Read up to *length* bytes (``-1`` = to EOF); returns bytes read."""
        self._begin()
        nread = 0
        if self.fs.exists(path):
            with self.fs.open(path, "r") as handle:
                if offset:
                    handle.seek(offset)
                nread = len(handle.read(length))
        self.bytes_read += nread
        obs.counter_add("workload.ops.read")
        obs.counter_add("workload.bytes_read", nread)
        self._log(op="read", path=path, offset=offset, length=length)
        return nread

    def unlink(self, path: str) -> None:
        """Delete *path* if it exists (idempotent, so replays never fail)."""
        self._begin()
        if self.fs.exists(path):
            self.fs.unlink(path)
        obs.counter_add("workload.ops.unlink")
        self._log(op="unlink", path=path)

    def rename(self, old_path: str, new_path: str) -> None:
        """Move *old_path* over *new_path* (``os.replace`` semantics)."""
        self._begin()
        if self.fs.exists(old_path):
            if self.fs.exists(new_path):
                self.fs.unlink(new_path)
            self._ensure_parent(new_path)
            self.fs.rename(old_path, new_path)
        obs.counter_add("workload.ops.rename")
        self._log(op="rename", path=old_path, path2=new_path)

    def fsync(self, path: Optional[str] = None) -> None:
        """Flush to stable storage (the VFS models a whole-fs fsync)."""
        self._begin()
        self.fs.flush()
        self.syncs += 1
        obs.counter_add("workload.ops.fsync")
        self._log(op="fsync", path=path)

    def think(self, seconds: float) -> None:
        """User/app idle time: advances the clock without touching storage."""
        if seconds < 0:
            raise WorkloadError(f"think time cannot be negative: {seconds}")
        self._begin()
        self.clock.advance(seconds, "workload.think")
        self.think_total += seconds
        obs.counter_add("workload.ops.think")
        self._log(op="think", seconds=seconds)

    # internal: sim-time captured by _begin() for the current op
    _at: float = 0.0


def _result(
    name: str,
    ctx: WorkloadContext,
    elapsed: float,
    stats_device=None,
    stats_before: Optional[IOStats] = None,
) -> WorkloadResult:
    if stats_device is not None and stats_before is not None:
        io = stats_device.stats - stats_before
    elif stats_device is not None:
        io = stats_device.stats.snapshot()
    else:
        io = IOStats()
    return WorkloadResult(
        name=name,
        ops=ctx.ops,
        elapsed_s=elapsed,
        think_s=ctx.think_total,
        bytes_written=ctx.bytes_written,
        bytes_read=ctx.bytes_read,
        syncs=ctx.syncs,
        io=io,
    )


def run_personality(
    name: str,
    fs: Filesystem,
    clock: SimClock,
    rng: Rng,
    ops: int = 200,
    content_seed: int = 0,
    record: bool = True,
    stats_device=None,
) -> Tuple[WorkloadResult, List[TraceOp]]:
    """Run personality *name* for ~*ops* operations; ``(result, trace)``.

    *stats_device* (usually the phone's raw userdata device) supplies the
    before/after :class:`IOStats` delta so the result reflects what hit the
    medium, dummy writes and metadata included.
    """
    from repro.workload.personalities import PERSONALITIES

    try:
        fn = PERSONALITIES[name]
    except KeyError:
        known = ", ".join(sorted(PERSONALITIES))
        raise WorkloadError(f"unknown personality {name!r}; known: {known}")
    if ops <= 0:
        raise WorkloadError(f"ops must be positive, got {ops}")
    ctx = WorkloadContext(fs, clock, rng, content_seed=content_seed,
                          record=record)
    before = stats_device.stats.snapshot() if stats_device is not None else None
    with obs.span(f"workload.{name}", clock=clock, ops=ops):
        with Stopwatch(clock) as sw:
            fn(ctx, ops)
    return _result(name, ctx, sw.elapsed, stats_device, before), ctx.trace


def replay_trace(
    trace_ops: List[TraceOp],
    fs: Filesystem,
    clock: SimClock,
    content_seed: int = 0,
    name: str = "replay",
    stats_device=None,
) -> WorkloadResult:
    """Re-drive a recorded trace against *fs*; returns the measured result.

    Replaying the same trace twice on the same stack configuration and
    seed produces byte-identical results — payloads are regenerated from
    ``(content_seed, op index)`` and think-time is explicit in the trace.
    """
    ctx = WorkloadContext(
        fs, clock, Rng(content_seed), content_seed=content_seed, record=False
    )
    before = stats_device.stats.snapshot() if stats_device is not None else None
    with obs.span(f"workload.{name}", clock=clock, ops=len(trace_ops)):
        with Stopwatch(clock) as sw:
            for op in trace_ops:
                if op.op == "mkdir":
                    ctx.mkdir(op.path)
                elif op.op == "write":
                    ctx.write(op.path, op.length, offset=op.offset,
                              sync=op.sync)
                elif op.op == "read":
                    ctx.read(op.path, length=op.length, offset=op.offset)
                elif op.op == "unlink":
                    ctx.unlink(op.path)
                elif op.op == "rename":
                    ctx.rename(op.path, op.path2)
                elif op.op == "fsync":
                    ctx.fsync(op.path)
                elif op.op == "think":
                    ctx.think(op.seconds)
                else:  # pragma: no cover - loader validates op kinds
                    raise WorkloadError(f"unknown trace op {op.op!r}")
    return _result(name, ctx, sw.elapsed, stats_device, before)
