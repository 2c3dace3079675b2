"""Per-layer sim-time attribution: where a run's simulated time goes.

Every :meth:`~repro.blockdev.clock.SimClock.advance` names its reason, a
dotted name whose first component is the layer that pays the charge
(``emmc.write``, ``crypt.cpu``, ``thin.lookup``, ``pde.noise``, ...), and
the clock books the charge into its ``charged`` ledger. :func:`attribution`
folds a ledger into one row per layer, with the per-reason split under
each. The ledger sees each charge where it lands, so a charge that the
extent path schedules for the leaf device to replay (crypto CPU, thin
lookups) still books to the layer that scheduled it.

The rows partition the clock delta: every reason must map to a known
layer (an unknown prefix raises :class:`~repro.errors.ObsError`), so
there is no unattributed remainder, and the rows sum to the clock delta
up to float rounding (the ledger sums per reason, the clock in call
order). Span names use the same prefixes, so :func:`layer_of` also picks
each span's chrome-trace track.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.errors import ObsError
from repro.util.units import format_seconds, render_table

#: First dotted component of a charge reason or span name → its layer.
#: Stable names are part of the observability contract (see
#: docs/observability.md); a new charge or span picks one of these
#: prefixes or extends the table.
LAYER_BY_PREFIX: Dict[str, str] = {
    "system": "system",
    "android": "android",
    "workload": "workload",
    "bench": "bench",
    "ext4": "ext4",
    "pool": "thin",
    "thin": "thin",
    "crypt": "crypt",
    "crypto": "crypto",
    "pde": "pde",
    "emmc": "emmc",
    "baseline": "baseline",
    "adversary": "adversary",
}

#: Display order for the report: the table's order, top of the stack first.
_LAYER_ORDER = {
    layer: i for i, layer in enumerate(dict.fromkeys(LAYER_BY_PREFIX.values()))
}


def layer_of(name: str) -> str:
    """The layer a charge reason or span name reports under (``other`` if
    its prefix is unknown)."""
    return LAYER_BY_PREFIX.get(name.split(".", 1)[0], "other")


def attribution(
    charged: Mapping[str, float], total_s: float
) -> Dict[str, object]:
    """Fold a clock ledger into a per-layer sim-time report.

    *charged* maps reasons to seconds: a clock's ``charged`` ledger, or
    the per-reason difference of two readings of it; *total_s* is the
    clock delta the ledger covers. Returns a JSON-serializable dict: the
    total, and per layer its seconds, its share of the total and its
    per-reason seconds.
    """
    layers: Dict[str, Dict[str, object]] = {}
    for reason in sorted(charged):
        layer = layer_of(reason)
        if layer == "other":
            raise ObsError(
                f"charge reason {reason!r} names no known layer; start it "
                "with a LAYER_BY_PREFIX key"
            )
        entry = layers.setdefault(layer, {"seconds": 0.0, "reasons": {}})
        entry["reasons"][reason] = charged[reason]
        entry["seconds"] += charged[reason]
    for entry in layers.values():
        entry["share"] = entry["seconds"] / total_s if total_s else 0.0
    return {"total_s": total_s, "layers": layers}


def render_attribution(report: Dict[str, object]) -> str:
    """The attribution report as a fixed-width text table: one row per
    layer, then one indented row per reason it was charged under."""
    layers: Dict[str, Dict[str, object]] = report["layers"]  # type: ignore
    total = report["total_s"]
    if not layers:
        return "(no simulated time charged)"
    rows = []
    for layer in sorted(layers, key=lambda l: _LAYER_ORDER[l]):
        entry = layers[layer]
        rows.append(
            [layer, format_seconds(entry["seconds"]), f"{entry['share']:6.1%}"]
        )
        for reason, seconds in entry["reasons"].items():
            share = seconds / total if total else 0.0
            rows.append(
                [f"  {reason}", format_seconds(seconds), f"{share:6.1%}"]
            )
    table = render_table(["layer / reason", "sim time", "share"], rows)
    return f"{table}\n\ntotal {format_seconds(total)} (simulated clock)"
