"""The side-channel attack of Czeskis et al. (paper ref. [23], Sec. IV-D).

Deniable file systems historically fall not to cryptanalysis but to the
*tattling OS*: file paths, thumbnails and logs of hidden activity recorded
on public media. The paper names four leak paths — the public volume,
``/devlog``, ``/cache`` and RAM — and MobiCeal's defense is isolation
(tmpfs overlays, one-way switching).

The attack here is mechanical: grep raw images of every on-disk medium for
hidden file names, and inspect RAM residue when the device is captured
powered on. Run against MobiCeal it must come back empty; run against the
non-isolating strawman (``isolate_side_channels=False``) it finds the
hidden paths in the plaintext log partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.android.phone import Phone
from repro.blockdev.snapshot import capture
from repro.adversary.forensics import grep_snapshot


@dataclass
class LeakReport:
    """Where (if anywhere) hidden file names were found."""

    #: hidden path -> block indices on the raw userdata image
    userdata_hits: Dict[str, List[int]] = field(default_factory=dict)
    #: hidden path -> block indices on the /cache partition
    cache_hits: Dict[str, List[int]] = field(default_factory=dict)
    #: hidden path -> block indices on the /devlog partition
    devlog_hits: Dict[str, List[int]] = field(default_factory=dict)
    #: hidden paths present in RAM at capture time
    ram_hits: List[str] = field(default_factory=list)

    @property
    def on_disk_leak(self) -> bool:
        return bool(self.userdata_hits or self.cache_hits or self.devlog_hits)

    @property
    def any_leak(self) -> bool:
        return self.on_disk_leak or bool(self.ram_hits)

    def describe(self) -> str:
        if not self.any_leak:
            return "no leakage found on any medium"
        parts = []
        for name, hits in (
            ("userdata", self.userdata_hits),
            ("/cache", self.cache_hits),
            ("/devlog", self.devlog_hits),
        ):
            for path, blocks in hits.items():
                parts.append(f"{name}: {path!r} at blocks {blocks[:5]}")
        for path in self.ram_hits:
            parts.append(f"RAM: {path!r}")
        return "; ".join(parts)


def side_channel_attack(
    phone: Phone, hidden_paths: Sequence[str]
) -> LeakReport:
    """Run the full attack against a (seized) phone.

    Images userdata, /cache and /devlog and greps each for every hidden
    path, then inspects RAM (the device was captured powered on).
    """
    report = LeakReport()
    media = {
        "userdata": capture(phone.userdata, "userdata"),
        "cache": capture(phone.cache_dev, "cache"),
        "devlog": capture(phone.devlog_dev, "devlog"),
    }
    sinks = {
        "userdata": report.userdata_hits,
        "cache": report.cache_hits,
        "devlog": report.devlog_hits,
    }
    for path in hidden_paths:
        needle = path.encode("utf-8")
        for name, snapshot in media.items():
            hits = grep_snapshot(snapshot, needle)
            if hits:
                sinks[name][path] = hits
    report.ram_hits = [
        path for path in hidden_paths
        if path in phone.framework.ram_residue
    ]
    return report
