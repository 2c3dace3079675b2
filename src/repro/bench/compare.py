"""Bench regression gate: compare two directories of BENCH payloads.

:func:`compare_dirs` diffs two directories of BENCH files metric by
metric under per-experiment tolerance bands. Deterministic sim-clock
experiments must reproduce essentially bit-for-bit (tight band);
wall-clock measurements (the hotpath and store microbenches) swing with
machine load and get a loose band. ``repro bench compare`` exits non-zero
when any metric leaves its band, which is the CI regression gate. The
git log of the committed BENCH files is the trajectory of each number.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.errors import BenchError

#: Relative band for deterministic sim-clock experiments: regeneration at
#: the same seed must reproduce the numbers exactly, so anything beyond
#: float-noise is a real regression.
TIGHT_TOLERANCE = 1e-9

#: Relative band for wall-clock measurements, which vary run to run with
#: machine load and CPU frequency scaling.
LOOSE_TOLERANCE = 0.60

#: Experiments whose BENCH metrics are wall-clock measurements.
WALL_CLOCK_EXPERIMENTS = frozenset({"hotpath", "store"})

#: Absolute slack under which a delta is never a regression (guards the
#: ``baseline == 0`` relative-delta singularity for both bands).
ABSOLUTE_FLOOR = 1e-12

#: One-sided hard minimums, enforced on top of the tolerance bands:
#: ``experiment -> flattened metric path -> minimum acceptable value``.
#: These encode acceptance criteria that must never erode no matter how
#: the baseline moves — the extent-path speedup bars live here, so
#: ``repro bench compare`` (and hence CI) fails if the crypt hot path
#: ever drops below its promised multiple of the per-block path
#: (the test oracle in ``tests/oracles/per_block.py``) on the same core.
METRIC_FLOORS: Mapping[str, Mapping[str, float]] = {
    "hotpath": {
        "scenarios.crypt_seq_write.speedup": 5.0,
        "scenarios.emmc_seq_write.speedup": 3.0,
    },
    # Store acceptance bars: the CoW overlay checkpoint must stay an
    # order of magnitude ahead of a full re-intern at 1% dirty, and the
    # fleet store's delta checkpoint ahead of a full manifest rewrite.
    "store": {
        "cow_checkpoint.speedup": 10.0,
        "fleet_checkpoint.speedup": 1.25,
    },
}


def tolerance_for(experiment: str) -> float:
    """The relative tolerance band for *experiment*'s metrics."""
    if experiment in WALL_CLOCK_EXPERIMENTS:
        return LOOSE_TOLERANCE
    return TIGHT_TOLERANCE


def _improvement_direction(metric: str) -> int:
    """Which way a wall-clock metric improves: +1 up, -1 down, 0 unknown.

    Wall-clock measurements get a one-sided band — a faster simulator is
    never a regression — so the compare step needs to know which sign is
    "better" for each metric shape.
    """
    leaf = metric.rsplit(".", 1)[-1]
    if leaf == "speedup" or leaf.endswith("_per_s"):
        return 1
    if leaf.endswith("_s"):
        return -1
    return 0


# ---------------------------------------------------------------------------
# Flattening
# ---------------------------------------------------------------------------


def flatten_numeric(value: object, prefix: str = "") -> Dict[str, float]:
    """All numeric leaves of a JSON value as ``dotted.path -> float``.

    Booleans are skipped (they are flags, not measurements); list elements
    are addressed by index so row tables keep a stable key per cell.
    """
    out: Dict[str, float] = {}
    if isinstance(value, bool):
        return out
    if isinstance(value, (int, float)):
        if not math.isnan(value):
            out[prefix or "value"] = float(value)
    elif isinstance(value, Mapping):
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value[key], path))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            out.update(flatten_numeric(item, f"{prefix}[{i}]"))
    return out


def experiment_metrics(payload: Mapping[str, object]) -> Dict[str, float]:
    """The comparable metrics of a BENCH payload.

    Full payloads carry their experiment numbers under ``results``; legacy
    flat files (the hotpath microbench) *are* their results.
    """
    results = payload.get("results", payload)
    return flatten_numeric(results)


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline-vs-current comparison.

    *direction* one-sides the tolerance band for wall-clock metrics
    (changes in the improving direction never regress); *floor* is a hard
    minimum from :data:`METRIC_FLOORS` that applies regardless of how the
    baseline itself has moved.
    """

    experiment: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    tolerance: float
    direction: int = 0
    floor: Optional[float] = None

    @property
    def rel_delta(self) -> float:
        """Relative change vs the baseline (``inf`` when only one side)."""
        if self.baseline is None or self.current is None:
            return math.inf
        diff = self.current - self.baseline
        if abs(diff) <= ABSOLUTE_FLOOR:
            return 0.0
        if self.baseline == 0.0:
            return math.inf
        return diff / abs(self.baseline)

    @property
    def below_floor(self) -> bool:
        return (
            self.floor is not None
            and self.current is not None
            and self.current < self.floor
        )

    @property
    def ok(self) -> bool:
        if self.below_floor:
            return False
        rel = self.rel_delta
        if self.direction and rel != math.inf:
            # one-sided band: only movement against the improving
            # direction can regress
            if (rel >= 0) == (self.direction > 0):
                return True
        return abs(rel) <= self.tolerance


@dataclass
class CompareReport:
    """The outcome of comparing two BENCH directories."""

    deltas: List[MetricDelta]
    missing_files: List[str]
    schema_mismatches: List[str]
    files_checked: int

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if not d.ok]

    @property
    def ok(self) -> bool:
        return (
            not self.regressions
            and not self.missing_files
            and not self.schema_mismatches
        )


def compare_payloads(
    baseline: Mapping[str, object],
    current: Mapping[str, object],
    experiment: str,
    tolerance: Optional[float] = None,
) -> List[MetricDelta]:
    """Metric-by-metric deltas between two payloads of one experiment.

    Metrics present on only one side come back with the other side
    ``None`` (never ``ok``) — a silently vanished metric is a regression
    of the bench itself.
    """
    if tolerance is None:
        tolerance = tolerance_for(experiment)
    base = experiment_metrics(baseline)
    cur = experiment_metrics(current)
    wall_clock = experiment in WALL_CLOCK_EXPERIMENTS
    floors = METRIC_FLOORS.get(experiment, {})
    deltas = []
    for name in sorted(set(base) | set(cur)):
        deltas.append(
            MetricDelta(
                experiment=experiment,
                metric=name,
                baseline=base.get(name),
                current=cur.get(name),
                tolerance=tolerance,
                direction=_improvement_direction(name) if wall_clock else 0,
                floor=floors.get(name),
            )
        )
    return deltas


def _experiment_of(path: pathlib.Path) -> str:
    return path.stem[len("BENCH_"):]


def _require_bench_dir(directory: pathlib.Path, role: str) -> None:
    """Raise :class:`BenchError` for a dir that cannot anchor a compare."""
    if not directory.is_dir():
        raise BenchError(
            f"{role} results directory {directory} does not exist — "
            f"expected a directory holding BENCH_*.json files (e.g. "
            f"{directory / 'BENCH_fig4.json'}); run the bench commands "
            "first, or point the flag at the right directory"
        )
    if not any(directory.glob("BENCH_*.json")):
        raise BenchError(
            f"{role} results directory {directory} holds no BENCH_*.json "
            f"files — a comparison against nothing would pass vacuously; "
            "run the bench commands first, or point the flag at the "
            "right directory"
        )


def compare_dirs(baseline_dir, current_dir) -> CompareReport:
    """Compare every ``BENCH_*.json`` of *baseline_dir* against *current_dir*.

    Files that exist only in the current directory are new benchmarks, not
    regressions, and are ignored; files that exist only in the baseline
    are reported as missing. A baseline or candidate directory that is
    missing or holds no BENCH files at all raises :class:`BenchError`
    (a gate that silently compares nothing would always pass).
    """
    baseline_dir = pathlib.Path(baseline_dir)
    current_dir = pathlib.Path(current_dir)
    _require_bench_dir(baseline_dir, "baseline")
    _require_bench_dir(current_dir, "candidate")
    deltas: List[MetricDelta] = []
    missing: List[str] = []
    mismatches: List[str] = []
    checked = 0
    for base_path in sorted(baseline_dir.glob("BENCH_*.json")):
        cur_path = current_dir / base_path.name
        if not cur_path.exists():
            missing.append(base_path.name)
            continue
        baseline = json.loads(base_path.read_text())
        current = json.loads(cur_path.read_text())
        experiment = _experiment_of(base_path)
        base_schema = baseline.get("schema_version")
        cur_schema = current.get("schema_version")
        if base_schema != cur_schema:
            mismatches.append(
                f"{base_path.name}: schema_version {base_schema!r} -> "
                f"{cur_schema!r}"
            )
            continue
        deltas.extend(compare_payloads(baseline, current, experiment))
        checked += 1
    return CompareReport(
        deltas=deltas,
        missing_files=missing,
        schema_mismatches=mismatches,
        files_checked=checked,
    )


def render_compare(report: CompareReport) -> str:
    """Human-readable comparison summary (regressions only, then verdict)."""
    lines: List[str] = []
    for name in report.missing_files:
        lines.append(f"MISSING  {name}: present in baseline, absent now")
    for note in report.schema_mismatches:
        lines.append(f"SCHEMA   {note}")
    for delta in report.regressions:
        if delta.baseline is None:
            detail = f"new metric (current={delta.current:g})"
        elif delta.current is None:
            detail = f"metric vanished (baseline={delta.baseline:g})"
        elif delta.below_floor:
            detail = (
                f"{delta.current:g} below hard floor {delta.floor:g} "
                f"(baseline={delta.baseline:g})"
            )
        else:
            detail = (
                f"{delta.baseline:g} -> {delta.current:g} "
                f"({delta.rel_delta:+.2%}, band ±{delta.tolerance:g} rel)"
            )
        lines.append(f"REGRESS  {delta.experiment}.{delta.metric}: {detail}")
    in_band = len(report.deltas) - len(report.regressions)
    lines.append(
        f"{report.files_checked} file(s) compared, {in_band} metric(s) "
        f"in band, {len(report.regressions)} regression(s)"
    )
    lines.append("OK" if report.ok else "FAIL")
    return "\n".join(lines)
