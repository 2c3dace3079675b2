"""Workload generators: the paper's dd and Bonnie++ measurements.

Throughput is ``bytes / simulated seconds`` — every block the workload
touches advances the stack's shared :class:`SimClock` through the calibrated
latency, crypto, and thin-layer costs, so differences between settings
emerge from the mechanisms (dummy writes, extra mapping layer, ORAM
amplification) rather than from hardcoded numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blockdev.clock import SimClock, Stopwatch
from repro.fs.vfs import Filesystem

#: dd used a single 400 MB request; we issue large sequential chunks.
DD_CHUNK = 4 * 1024 * 1024

#: Bonnie++ writes its file in small block-sized chunks.
BONNIE_CHUNK = 8 * 1024


@dataclass(frozen=True)
class ThroughputSample:
    """One workload measurement."""

    nbytes: int
    seconds: float

    @property
    def bytes_per_second(self) -> float:
        return self.nbytes / self.seconds if self.seconds > 0 else float("inf")

    @property
    def kb_per_second(self) -> float:
        """KB/s as in the paper's Fig. 4 (decimal kilobytes)."""
        return self.bytes_per_second / 1000.0

    @property
    def mb_per_second(self) -> float:
        """MB/s as in the paper's Table I (decimal megabytes)."""
        return self.bytes_per_second / 1e6


def _pattern(nbytes: int) -> bytes:
    """Compressible-but-not-constant content, like dd's /dev/zero vs files."""
    unit = bytes(range(256))
    reps = -(-nbytes // len(unit))
    return (unit * reps)[:nbytes]


def sequential_write(
    fs: Filesystem,
    clock: SimClock,
    path: str,
    total_bytes: int,
    chunk: int = DD_CHUNK,
) -> ThroughputSample:
    """Sequential write of *total_bytes* (``dd if=/dev/zero of=...``).

    Flushes before stopping the stopwatch, like dd's ``conv=fdatasync``,
    so the measurement includes reaching stable storage.
    """
    payload = _pattern(chunk)
    with Stopwatch(clock) as sw:
        with fs.open(path, "w") as handle:
            remaining = total_bytes
            while remaining > 0:
                take = min(chunk, remaining)
                handle.write(payload[:take])
                remaining -= take
        fs.flush()
    return ThroughputSample(nbytes=total_bytes, seconds=sw.elapsed)


def sequential_read(
    fs: Filesystem,
    clock: SimClock,
    path: str,
    chunk: int = DD_CHUNK,
) -> ThroughputSample:
    """Sequential read of an existing file (``dd if=... of=/dev/null``)."""
    total = 0
    with Stopwatch(clock) as sw:
        with fs.open(path, "r") as handle:
            while True:
                data = handle.read(chunk)
                if not data:
                    break
                total += len(data)
    return ThroughputSample(nbytes=total, seconds=sw.elapsed)


def bonnie_block_write(
    fs: Filesystem, clock: SimClock, path: str, total_bytes: int
) -> ThroughputSample:
    """Bonnie++ "write intelligently": block-sized sequential writes."""
    return sequential_write(fs, clock, path, total_bytes, chunk=BONNIE_CHUNK)


def bonnie_block_read(
    fs: Filesystem, clock: SimClock, path: str
) -> ThroughputSample:
    """Bonnie++ "read intelligently": block-sized sequential reads."""
    return sequential_read(fs, clock, path, chunk=BONNIE_CHUNK)


#: CPU cost of Bonnie++'s per-character stdio loop (putc/getc). The char
#: tests are CPU-bound on the Nexus 4 (~3 MB/s), which is why the paper's
#: Fig. 4 notes similar CPU overhead across settings.
CHAR_CPU_BYTE_S = 1.0 / (3 * 1024 * 1024)


def bonnie_char_write(
    fs: Filesystem, clock: SimClock, path: str, total_bytes: int
) -> ThroughputSample:
    """Bonnie++ "write per chr": putc() every byte, stdio-buffered.

    Charges the per-character CPU loop to the clock and flushes to the
    filesystem in stdio-sized (8 KiB) buffers, like the real benchmark.
    """
    with Stopwatch(clock) as sw:
        with fs.open(path, "w") as handle:
            remaining = total_bytes
            while remaining > 0:
                take = min(BONNIE_CHUNK, remaining)
                clock.advance(take * CHAR_CPU_BYTE_S, "bench.putc")
                handle.write(_pattern(take))
                remaining -= take
        fs.flush()
    return ThroughputSample(nbytes=total_bytes, seconds=sw.elapsed)


def bonnie_char_read(
    fs: Filesystem, clock: SimClock, path: str
) -> ThroughputSample:
    """Bonnie++ "read per chr": getc() every byte, stdio-buffered."""
    total = 0
    with Stopwatch(clock) as sw:
        with fs.open(path, "r") as handle:
            while True:
                data = handle.read(BONNIE_CHUNK)
                if not data:
                    break
                clock.advance(len(data) * CHAR_CPU_BYTE_S, "bench.getc")
                total += len(data)
    return ThroughputSample(nbytes=total, seconds=sw.elapsed)
