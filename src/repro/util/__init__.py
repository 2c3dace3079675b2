"""Small shared utilities: unit helpers, deterministic RNG plumbing, stats."""

from repro.util.units import (
    KiB,
    MiB,
    GiB,
    SECTOR_SIZE,
    format_bytes,
    format_duration,
    format_seconds,
    render_table,
)
from repro.util.stats import Summary, summarize, shannon_entropy, chi_square_uniform

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "SECTOR_SIZE",
    "format_bytes",
    "format_duration",
    "format_seconds",
    "render_table",
    "Summary",
    "summarize",
    "shannon_entropy",
    "chi_square_uniform",
]
