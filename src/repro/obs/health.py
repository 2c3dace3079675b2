"""Per-device fleet health scoring (``health.v1``).

Turns the small per-device summaries the spool reducer produces into a
population health report: each device is scored against fleet medians and
flagged for the failure shapes a million-device operator actually pages
on —

* ``crash`` — the device's run died (a ``device_crash`` event, or a start
  with no finish);
* ``stalled-clock`` — operations completed but no simulated time elapsed,
  the signature of a wedged clock or a run that made no storage progress;
* ``write-amplification-outlier`` — physical-over-logical write ratio far
  above the fleet median (a device paying disproportionate I/O for its
  traffic);
* ``gauge-drift`` — the ``pde.dummy_amplification`` deniability gauge far
  from the fleet median: a device whose dummy-write defense behaves
  unlike the population is exactly what a multi-snapshot adversary
  (Fredrickson et al. 2021; Chen/Chen/Shi 2022) would single out.

Scores are deterministic functions of sim-clock measurements only (worker
wall times never enter), so the summarized ``BENCH_fleet_health.json`` is
a byte-stable regression baseline like every other BENCH payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.export import SCHEMA_VERSION
from repro.util.stats import median

#: Flag weights: score = max(0, 1 - sum of raised flags' weights).
FLAG_WEIGHTS: Dict[str, float] = {
    "crash": 0.6,
    "stalled-clock": 0.4,
    "write-amplification-outlier": 0.25,
    "gauge-drift": 0.25,
}

#: A device is a write-amplification outlier above this multiple of the
#: fleet median physical/logical ratio.
WRITE_AMP_OUTLIER_FACTOR = 2.0

#: A device's dummy-amplification gauge drifts when it leaves this
#: relative band around the fleet median.
GAUGE_DRIFT_REL = 0.75

#: Devices scoring below this are counted unhealthy in the summary.
UNHEALTHY_BELOW = 0.75


@dataclass
class DeviceHealth:
    """One device's health verdict."""

    device: int
    score: float
    flags: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "score": self.score,
            "flags": list(self.flags),
            "metrics": dict(self.metrics),
        }


def _write_amplification(result: Dict[str, object]) -> Optional[float]:
    logical = result.get("bytes_written", 0)
    physical = result.get("io", {}).get("bytes_written", 0)
    if not logical:
        return None
    return physical / logical


def fleet_medians(summaries: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Robust fleet centers the per-device checks compare against."""
    throughput: List[float] = []
    amplification: List[float] = []
    dummy: List[float] = []
    occupancy: List[float] = []
    for summary in summaries:
        if summary.get("crashed"):
            continue
        result = summary.get("result", {})
        throughput.append(result.get("write_mb_s", 0.0))
        amp = _write_amplification(result)
        if amp is not None:
            amplification.append(amp)
        gauges = summary.get("gauges", {})
        if "pde.dummy_amplification" in gauges:
            dummy.append(gauges["pde.dummy_amplification"])
        if "pde.bitmap_occupancy" in gauges:
            occupancy.append(gauges["pde.bitmap_occupancy"])
    return {
        "write_mb_s": median(throughput),
        "write_amplification": median(amplification),
        "dummy_amplification": median(dummy),
        "bitmap_occupancy": median(occupancy),
    }


def score_device(
    summary: Dict[str, object], medians: Dict[str, float]
) -> DeviceHealth:
    """Score one device summary against the fleet medians."""
    flags: List[str] = []
    metrics: Dict[str, float] = {}
    if summary.get("crashed"):
        flags.append("crash")
    else:
        result = summary.get("result", {})
        ops = result.get("ops", 0)
        busy = result.get("busy_s", 0.0)
        elapsed = result.get("elapsed_s", 0.0)
        metrics["write_mb_s"] = result.get("write_mb_s", 0.0)
        metrics["busy_s"] = busy
        if ops and (elapsed <= 0.0 or busy <= 0.0):
            flags.append("stalled-clock")
        amp = _write_amplification(result)
        if amp is not None:
            metrics["write_amplification"] = amp
            center = medians.get("write_amplification", 0.0)
            if center > 0.0 and amp > WRITE_AMP_OUTLIER_FACTOR * center:
                flags.append("write-amplification-outlier")
        gauges = summary.get("gauges", {})
        if "pde.dummy_amplification" in gauges:
            dummy = gauges["pde.dummy_amplification"]
            metrics["dummy_amplification"] = dummy
            center = medians.get("dummy_amplification", 0.0)
            if center > 0.0 and abs(dummy - center) > GAUGE_DRIFT_REL * center:
                flags.append("gauge-drift")
    penalty = sum(FLAG_WEIGHTS[flag] for flag in flags)
    return DeviceHealth(
        device=int(summary["device"]),
        score=max(0.0, 1.0 - penalty),
        flags=flags,
        metrics=metrics,
    )


def score_devices(
    summaries: Sequence[Dict[str, object]],
    medians: Optional[Dict[str, float]] = None,
) -> List[DeviceHealth]:
    """Score every device summary; devices come back sorted by index."""
    if medians is None:
        medians = fleet_medians(summaries)
    scores = [score_device(summary, medians) for summary in summaries]
    scores.sort(key=lambda health: health.device)
    return scores


def health_events(
    scores: Sequence[DeviceHealth], sim_t: float = 0.0
) -> List[Dict[str, object]]:
    """``health.v1`` event dicts, one per device, spool-appendable."""
    from repro.obs.stream import HEALTH_SCHEMA

    return [
        {
            "schema": HEALTH_SCHEMA,
            "event": "health",
            "device": health.device,
            "seq": i,
            "sim_t": float(sim_t),
            "score": health.score,
            "flags": list(health.flags),
            "metrics": dict(health.metrics),
        }
        for i, health in enumerate(scores)
    ]


def write_health_events(directory, scores: Sequence[DeviceHealth]):
    """Append the fleet's health verdicts as ``health.jsonl`` under the
    spool directory; returns the path."""
    import json
    import pathlib

    path = pathlib.Path(directory) / "health.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for event in health_events(scores):
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    return path


def health_payload(
    scores: Sequence[DeviceHealth],
    medians: Dict[str, float],
    params: Optional[Dict[str, object]] = None,
    max_listed: int = 32,
) -> Dict[str, object]:
    """The ``BENCH_fleet_health.json`` payload.

    Aggregate counts cover the whole fleet; the per-device detail list is
    capped at *max_listed* lowest-scoring devices so the payload stays
    fixed-size no matter how large the fleet is.
    """
    flag_counts: Dict[str, int] = {}
    for health in scores:
        for flag in health.flags:
            flag_counts[flag] = flag_counts.get(flag, 0) + 1
    unhealthy = [h for h in scores if h.score < UNHEALTHY_BELOW]
    worst = sorted(unhealthy, key=lambda h: (h.score, h.device))[:max_listed]
    results: Dict[str, object] = {
        "devices": len(scores),
        "healthy": sum(1 for h in scores if h.score >= UNHEALTHY_BELOW),
        "unhealthy": len(unhealthy),
        "mean_score": (
            sum(h.score for h in scores) / len(scores) if scores else 0.0
        ),
        "min_score": min((h.score for h in scores), default=0.0),
        "flag_counts": dict(sorted(flag_counts.items())),
        "medians": dict(medians),
        "worst": [h.as_dict() for h in worst],
    }
    payload: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "experiment": "fleet_health",
        "results": results,
    }
    if params:
        payload["params"] = dict(params)
    return payload


def render_health(payload: Dict[str, object]) -> str:
    """One-paragraph human summary of a fleet health payload."""
    results = payload["results"]
    lines = [
        f"Fleet health: {results['healthy']}/{results['devices']} healthy, "
        f"mean score {results['mean_score']:.3f}, "
        f"min {results['min_score']:.3f}"
    ]
    if results["flag_counts"]:
        flags = ", ".join(
            f"{name} x{count}"
            for name, count in results["flag_counts"].items()
        )
        lines.append(f"flags: {flags}")
    for entry in results["worst"]:
        lines.append(
            f"  device {entry['device']}: score {entry['score']:.2f} "
            f"({', '.join(entry['flags'])})"
        )
    return "\n".join(lines)
