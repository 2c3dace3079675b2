"""Per-layer time attribution: where a run's time actually goes.

Spans carry dotted names whose first component identifies the layer that
emitted them (``emmc.write_extent`` → the eMMC model, ``pool.commit`` →
dm-thin, ``ext4.flush`` → the filesystem, ...). This module folds a
:class:`~repro.obs.recorder.Recorder`'s span forest into a per-layer
report with both *inclusive* time (everything that happened while the
layer's spans were open, children included) and *exclusive* time (the
layer's own self time, children subtracted) — the numbers a flamegraph
shows, but summarized to one row per layer.

Exclusive times partition the span forest exactly: summed over every
layer (including ``other``) they equal the total root-span time, so the
report can never double-count and the ``unattributed`` bucket is
precisely the self time of spans no known layer claims. The acceptance
bar for the hot path is that crypt + thin + emmc account for >= 95% of a
crypt-over-thin-over-eMMC profile, which requires the deep per-extent
spans (``observe(deep=True)``) to be enabled.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ObsError
from repro.obs.recorder import Recorder, SpanRecord
from repro.util.units import format_seconds, render_table

#: First dotted component of a span name → the layer it reports under.
#: Stable span names are part of the observability contract (see
#: docs/observability.md); new instrumentation should pick one of these
#: prefixes or extend the table.
LAYER_BY_PREFIX: Dict[str, str] = {
    "emmc": "emmc",
    "ram": "ram",
    "crypt": "crypt",
    "pool": "thin",
    "thin": "thin",
    "ext4": "ext4",
    "system": "system",
    "pde": "pde",
    "crypto": "crypto",
    "workload": "workload",
    "replay": "workload",
}

#: Display order for the report (unknown layers sort after, alphabetically).
_LAYER_ORDER = (
    "system", "workload", "ext4", "thin", "crypt", "crypto",
    "pde", "emmc", "ram", "other",
)


def layer_of(span_name: str) -> str:
    """The layer a span name reports under (``other`` if unknown)."""
    prefix = span_name.split(".", 1)[0]
    return LAYER_BY_PREFIX.get(prefix, "other")


def _durations(recorder: Recorder, timeline: str) -> List[float]:
    if timeline == "sim":
        return [s.duration for s in recorder.spans]
    if timeline == "wall":
        if not recorder.wall:
            raise ObsError(
                "wall-clock attribution needs a recorder opened with "
                "observe(wall=True)"
            )
        return [s.wall_duration for s in recorder.spans]
    raise ObsError(f"unknown timeline {timeline!r}; use 'sim' or 'wall'")


def self_times(recorder: Recorder, timeline: str = "sim") -> List[float]:
    """Per-span exclusive time: duration minus direct children, >= 0."""
    durations = _durations(recorder, timeline)
    self_s = list(durations)
    for s in recorder.spans:
        if s.parent is not None:
            self_s[s.parent] -= durations[s.index]
    return [max(t, 0.0) for t in self_s]


def attribution(
    recorder: Recorder, timeline: str = "sim"
) -> Dict[str, object]:
    """Fold the span forest into a per-layer time report.

    Returns a JSON-serializable dict: total root-span time, one entry per
    layer (span count, inclusive and exclusive seconds, exclusive share of
    total) and the unattributed remainder (self time of ``other`` spans).
    """
    durations = _durations(recorder, timeline)
    self_s = self_times(recorder, timeline)
    layers: Dict[str, Dict[str, float]] = {}
    span_layer: List[str] = []
    total = 0.0
    for s in recorder.spans:
        layer = layer_of(s.name)
        span_layer.append(layer)
        entry = layers.setdefault(
            layer, {"spans": 0, "inclusive_s": 0.0, "exclusive_s": 0.0}
        )
        entry["spans"] += 1
        entry["exclusive_s"] += self_s[s.index]
        if s.parent is None:
            total += durations[s.index]
        # inclusive: only layer-entry spans (no ancestor of the same
        # layer) contribute, so nested same-layer spans never double-count
        parent = s.parent
        entered = True
        while parent is not None:
            if span_layer[parent] == layer:
                entered = False
                break
            parent = recorder.spans[parent].parent
        if entered:
            entry["inclusive_s"] += durations[s.index]
    for entry in layers.values():
        entry["share"] = entry["exclusive_s"] / total if total else 0.0
    attributed = sum(
        entry["exclusive_s"]
        for layer, entry in layers.items()
        if layer != "other"
    )
    return {
        "timeline": timeline,
        "total_s": total,
        "layers": layers,
        "attributed_s": attributed,
        "unattributed_s": max(total - attributed, 0.0),
    }


def render_attribution(report: Dict[str, object]) -> str:
    """The attribution report as a fixed-width text table."""
    layers: Dict[str, Dict[str, float]] = report["layers"]  # type: ignore
    if not layers:
        return "(no spans recorded)"
    order = {layer: i for i, layer in enumerate(_LAYER_ORDER)}
    rows = []
    for layer in sorted(
        layers, key=lambda l: (order.get(l, len(order)), l)
    ):
        entry = layers[layer]
        rows.append(
            [
                layer,
                str(int(entry["spans"])),
                format_seconds(entry["inclusive_s"]),
                format_seconds(entry["exclusive_s"]),
                f"{entry['share']:6.1%}",
            ]
        )
    table = render_table(
        ["layer", "spans", "inclusive", "exclusive", "share"], rows
    )
    total = report["total_s"]
    unattributed = report["unattributed_s"]
    share = unattributed / total if total else 0.0
    return (
        f"{table}\n\n"
        f"total {format_seconds(total)} ({report['timeline']} clock), "
        f"unattributed {format_seconds(unattributed)} ({share:.1%})"
    )
