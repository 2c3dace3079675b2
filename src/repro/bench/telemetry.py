"""Observed experiment runners: run a bench under the observability spine.

Each ``observed_*`` function wraps the corresponding
:mod:`repro.bench.runners` entry point in :func:`repro.obs.observe`, runs a
small deniability probe, and returns ``(results, payload)`` where *payload*
is the schema-versioned dict that lands in ``BENCH_<experiment>.json``
(per-phase span durations, latency percentiles, deniability gauges).

Because the observability layer never draws randomness nor advances a
clock, *results* are identical to what the plain runner produces with the
same arguments — the text tables in ``benchmarks/results/`` stay
byte-for-byte the same whether or not telemetry is collected.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.bench.runners import (
    FIG4_SETTINGS,
    OverheadRow,
    TimingRow,
    run_fig4,
    run_table1,
    run_table2,
)
from repro.bench.stacks import build_fig4_stack
from repro.util.stats import Summary

#: Sweep strides for the sampled (bench-tier) crash sweep, per scenario.
CRASHSIM_STRIDES = {"metadata": 1, "pool": 1, "ext4": 2, "system": 6}

_PROBE_FILE_BYTES = 64 * 1024
_PROBE_FILES = 6


def _deniability_probe(recorder: obs.Recorder, seed: int = 3) -> None:
    """Record the deniability gauges from a small, seeded mc-p stack.

    The probe is deterministic (own seed, own clock) and runs inside the
    active observation, so its dummy-write spans and eMMC latencies land in
    the same recorder that the gauges annotate.
    """
    stack = build_fig4_stack("mc-p", seed=seed, userdata_blocks=4096)
    system = stack.system
    payload = b"\x5a" * _PROBE_FILE_BYTES
    for i in range(_PROBE_FILES):
        system.store_file(f"/probe/file{i}.bin", payload)
    system.sync()
    obs.record_deniability_gauges(
        recorder.metrics,
        pool=system.pool,
        allocation=system.config.allocation,
    )


def _summary_dict(summary: Optional[Summary]) -> Optional[Dict[str, float]]:
    return dataclasses.asdict(summary) if summary is not None else None


# ---------------------------------------------------------------------------
# Observed runners, one per experiment
# ---------------------------------------------------------------------------


def observed_fig4(
    settings: Sequence[str] = FIG4_SETTINGS,
    trials: int = 10,
    file_bytes: int = 8 * 1024 * 1024,
    userdata_blocks: int = 32768,
    seed: int = 0,
) -> Tuple[Dict[str, Dict[str, Summary]], Dict[str, object]]:
    """Fig. 4 under observation: ``(results, BENCH_fig4 payload)``."""
    with obs.observe() as recorder:
        results = run_fig4(
            settings=settings,
            trials=trials,
            file_bytes=file_bytes,
            userdata_blocks=userdata_blocks,
            seed=seed,
        )
        _deniability_probe(recorder)
    serialized = {
        setting: {
            metric: dataclasses.asdict(summary)
            for metric, summary in metrics.items()
        }
        for setting, metrics in results.items()
    }
    payload = obs.bench_payload(
        "fig4",
        serialized,
        recorder,
        extra={
            "params": {
                "trials": trials,
                "file_bytes": file_bytes,
                "userdata_blocks": userdata_blocks,
                "seed": seed,
            }
        },
    )
    return results, payload


def observed_table1(
    file_bytes: int = 4 * 1024 * 1024, seed: int = 0
) -> Tuple[List[OverheadRow], Dict[str, object]]:
    """Table I under observation: ``(rows, BENCH_table1 payload)``."""
    with obs.observe() as recorder:
        rows = run_table1(file_bytes=file_bytes, seed=seed)
        _deniability_probe(recorder)
    serialized = [
        {
            "system": row.system,
            "ext4_mb_s": row.ext4_mb_s,
            "encrypted_mb_s": row.encrypted_mb_s,
            "overhead": row.overhead,
        }
        for row in rows
    ]
    payload = obs.bench_payload(
        "table1",
        {"rows": serialized},
        recorder,
        extra={"params": {"file_bytes": file_bytes, "seed": seed}},
    )
    return rows, payload


def observed_table2(
    trials: int = 3,
    userdata_blocks: Optional[int] = None,
    seed: int = 0,
) -> Tuple[List[TimingRow], Dict[str, object]]:
    """Table II under observation: ``(rows, BENCH_table2 payload)``."""
    with obs.observe() as recorder:
        rows = run_table2(
            trials=trials, userdata_blocks=userdata_blocks, seed=seed
        )
        _deniability_probe(recorder)
    serialized = [
        {
            "system": row.system,
            "initialization": _summary_dict(row.initialization),
            "booting": _summary_dict(row.booting),
            "switch_in": _summary_dict(row.switch_in),
            "switch_out": _summary_dict(row.switch_out),
        }
        for row in rows
    ]
    payload = obs.bench_payload(
        "table2",
        {"rows": serialized},
        recorder,
        extra={
            "params": {
                "trials": trials,
                "userdata_blocks": userdata_blocks,
                "seed": seed,
            }
        },
    )
    return rows, payload


def observed_workloads(
    settings: Sequence[str] = ("android", "a-t-p", "mc-p"),
    personality: str = "mixed_daily",
    ops: int = 150,
    userdata_blocks: int = 4096,
    seed: int = 0,
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """Workload-mix overhead: ``(rows, BENCH_workloads payload)``.

    Records one *personality* trace, replays it on every stack in
    *settings* (first entry is the overhead baseline, conventionally
    ``android``), and reports per-setting busy time, throughput and
    relative overhead. The replayed traffic is identical across stacks —
    the trace pins the operations and think-times, and write payloads are
    regenerated from the seed — so the busy-time deltas are pure stack
    overhead under app-shaped traffic, the workload-level analogue of the
    paper's Fig. 4 microbenchmarks.
    """
    from repro.workload import DeviceSpec, record_device, replay_on_setting

    if not settings:
        raise ValueError("need at least one setting")
    _report, trace = record_device(
        DeviceSpec(
            setting=settings[0],
            personality=personality,
            ops=ops,
            seed=seed,
            userdata_blocks=userdata_blocks,
        )
    )
    rows: List[Dict[str, object]] = []
    obs_per_setting: Dict[str, object] = {}
    for setting in settings:
        result, obs_payload = replay_on_setting(
            trace,
            setting,
            seed=seed,
            userdata_blocks=userdata_blocks,
            content_seed=seed,
        )
        rows.append(
            {
                "setting": setting,
                "ops": result.ops,
                "bytes_written": result.bytes_written,
                "bytes_read": result.bytes_read,
                "busy_s": result.busy_s,
                "elapsed_s": result.elapsed_s,
                "write_mb_s": result.write_mb_s,
                "device_bytes_written": result.io.bytes_written,
            }
        )
        obs_per_setting[setting] = obs_payload
    baseline = rows[0]["busy_s"]
    for row in rows:
        row["overhead"] = (
            row["busy_s"] / baseline - 1.0 if baseline > 0 else 0.0
        )
    payload = {
        "schema_version": obs.SCHEMA_VERSION,
        "experiment": "workloads",
        "params": {
            "settings": list(settings),
            "personality": personality,
            "ops": ops,
            "userdata_blocks": userdata_blocks,
            "seed": seed,
            "trace_ops": len(trace),
        },
        "results": {"rows": rows},
        "obs_per_setting": obs_per_setting,
    }
    return rows, payload


def observed_crashsim(
    strides: Optional[Dict[str, int]] = None, seed: int = 0, limit: int = 0
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Sampled crash sweep under observation: ``(reports, payload)``.

    Sweeps each scenario named in *strides* (default: every scenario at
    the bench-tier :data:`CRASHSIM_STRIDES`), in registry order, keeping
    at most *limit* indices per scenario when *limit* is positive. The
    recorder picks up the recovery spans and crash-point marks of every
    run plus the deniability probe. ``repro crashsim`` and the benchmark
    suite both build ``BENCH_crashsim.json`` here, so at the defaults
    they write the same bytes.
    """
    from repro.testing.crashsim import (
        SCENARIOS,
        count_workload_writes,
        crash_sweep,
        stride_indices,
    )

    strides = dict(CRASHSIM_STRIDES if strides is None else strides)
    with obs.observe() as recorder:
        reports = {}
        for name, factory in SCENARIOS.items():
            if name not in strides:
                continue
            total = count_workload_writes(factory, seed=seed)
            indices = stride_indices(total, strides[name])
            if limit:
                indices = indices[:limit]
            reports[name] = crash_sweep(factory, indices=indices, seed=seed)
        _deniability_probe(recorder)
    serialized = {
        name: {
            "total_writes": report.total_writes,
            "attempted": report.attempted,
            "crashes": report.crashes,
            "failed": len(report.failures),
            "recovery_rate": report.recovery_rate,
        }
        for name, report in reports.items()
    }
    payload = obs.bench_payload(
        "crashsim",
        serialized,
        recorder,
        extra={"params": {"limit": limit, "seed": seed, "strides": strides}},
    )
    return reports, payload
