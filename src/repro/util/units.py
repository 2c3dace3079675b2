"""Byte-size, time and table formatting helpers used throughout the stack."""

from __future__ import annotations

from typing import Sequence

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: Traditional disk sector size; dm-crypt style per-sector IVs use this.
SECTOR_SIZE = 512


def format_bytes(n: int) -> str:
    """Render a byte count with a binary-prefix unit.

    >>> format_bytes(4096)
    '4.0 KiB'
    >>> format_bytes(400 * MiB)
    '400.0 MiB'
    """
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_duration(seconds: float) -> str:
    """Render a duration the way the paper's Table II does.

    >>> format_duration(9.27)
    '9.27s'
    >>> format_duration(136)
    '2min16s'
    """
    if seconds < 60:
        return f"{seconds:.2f}s"
    minutes = int(seconds // 60)
    rest = seconds - minutes * 60
    return f"{minutes}min{rest:.0f}s"


def format_seconds(seconds: float) -> str:
    """Render a span duration in s, ms or us.

    >>> format_seconds(0.0042)
    '4.20ms'
    """
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Simple fixed-width table renderer."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
