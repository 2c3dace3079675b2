"""Latency models for simulated storage media.

The models charge a fixed per-operation cost plus a per-byte transfer cost,
with an extra penalty for non-sequential access. The constants for concrete
devices (Nexus 4 eMMC, Nexus 6P UFS, the SSD/flash environments of the
paper's Table I) live in :mod:`repro.android.profiles`; this module defines
the mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyModel:
    """Per-operation storage latency model.

    All times are in seconds. ``*_op_s`` is charged once per request,
    ``*_byte_s`` once per transferred byte, and ``random_*_penalty_s`` is
    added when the request does not continue where the previous one ended.
    """

    name: str = "generic"
    read_op_s: float = 50e-6
    write_op_s: float = 100e-6
    read_byte_s: float = 1.0 / (40 * 1024 * 1024)
    write_byte_s: float = 1.0 / (25 * 1024 * 1024)
    random_read_penalty_s: float = 150e-6
    random_write_penalty_s: float = 300e-6

    def read_cost(self, nbytes: int, sequential: bool) -> float:
        """Simulated time to read *nbytes* in one request."""
        cost = self.read_op_s + nbytes * self.read_byte_s
        if not sequential:
            cost += self.random_read_penalty_s
        return cost

    def write_cost(self, nbytes: int, sequential: bool) -> float:
        """Simulated time to write *nbytes* in one request."""
        cost = self.write_op_s + nbytes * self.write_byte_s
        if not sequential:
            cost += self.random_write_penalty_s
        return cost

    @property
    def sequential_read_bandwidth(self) -> float:
        """Asymptotic sequential read bandwidth in bytes/second."""
        return 1.0 / self.read_byte_s

    @property
    def sequential_write_bandwidth(self) -> float:
        """Asymptotic sequential write bandwidth in bytes/second."""
        return 1.0 / self.write_byte_s


#: A zero-cost model, used by unit tests that do not care about timing.
FREE = LatencyModel(
    name="free",
    read_op_s=0.0,
    write_op_s=0.0,
    read_byte_s=0.0,
    write_byte_s=0.0,
    random_read_penalty_s=0.0,
    random_write_penalty_s=0.0,
)
