"""Single-device workload runs: one simulated phone, one measured report.

:func:`run_device` is the unit of work the fleet runner scales out: build a
fresh storage stack for a :class:`DeviceSpec`, run its personality under
observation, and return a JSON-serializable report (engine result, raw
device :class:`~repro.blockdev.device.IOStats`, deniability gauges and the
full observability payload). Reports are deterministic per spec, which is
what lets the fleet's merged output be cross-checked against single-device
runs at the same seeds.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.obs import stream as obs_stream
from repro.bench.stacks import FIG4_SETTINGS, Stack, build_fig4_stack
from repro.crypto.rng import Rng
from repro.errors import WorkloadError
from repro.workload.engine import (
    WorkloadResult,
    replay_trace,
    run_personality,
)
from repro.workload.trace import TraceOp

#: Default userdata size for workload runs (16 MiB at 4 KiB blocks).
DEFAULT_USERDATA_BLOCKS = 4096


@dataclass(frozen=True)
class DeviceSpec:
    """Everything one simulated device's run depends on."""

    index: int = 0
    setting: str = "mc-p"
    personality: str = "mixed_daily"
    ops: int = 150
    seed: int = 0
    userdata_blocks: int = DEFAULT_USERDATA_BLOCKS

    def validate(self) -> None:
        if self.setting not in FIG4_SETTINGS:
            raise WorkloadError(
                f"unknown setting {self.setting!r}; known: {FIG4_SETTINGS}"
            )
        if self.ops <= 0:
            raise WorkloadError(f"ops must be positive, got {self.ops}")
        if self.userdata_blocks < 1024:
            raise WorkloadError(
                f"userdata_blocks too small for a stack: {self.userdata_blocks}"
            )


def build_workload_stack(
    setting: str, seed: int, userdata_blocks: int = DEFAULT_USERDATA_BLOCKS
) -> Stack:
    """A fresh, mounted stack for one workload run (any Fig. 4 setting)."""
    return build_fig4_stack(
        setting, seed=seed, userdata_blocks=userdata_blocks
    )


def _workload_rng(spec: DeviceSpec) -> Rng:
    # derived from the seed only (not the device index), so a fleet
    # member's run is reproducible as a standalone run at the same seed
    return Rng(spec.seed).fork(f"workload/{spec.personality}")


def _finish_report(
    spec: DeviceSpec,
    result: WorkloadResult,
    recorder: obs.Recorder,
    stack: Stack,
) -> Dict[str, object]:
    if stack.system is not None:
        obs.record_deniability_gauges(
            recorder.metrics,
            pool=stack.system.pool,
            allocation=stack.system.config.allocation,
        )
    return {
        "device": spec.index,
        "spec": dataclasses.asdict(spec),
        "result": result.as_dict(),
        "obs": obs.recorder_payload(recorder),
    }


def run_device(spec: DeviceSpec) -> Dict[str, object]:
    """Run one device's personality workload; returns its report dict.

    Pure function of *spec*: the phone, stack and RNG streams are all
    derived from the spec's seed, so the same spec always produces the
    same report (this is the fleet's determinism contract).
    """
    spec.validate()
    with obs.observe() as recorder:
        stack = build_workload_stack(
            spec.setting, seed=spec.seed, userdata_blocks=spec.userdata_blocks
        )
        result, _trace = run_personality(
            spec.personality,
            stack.fs,
            stack.clock,
            _workload_rng(spec),
            ops=spec.ops,
            content_seed=spec.seed,
            record=False,
            stats_device=stack.phone.userdata,
        )
        report = _finish_report(spec, result, recorder, stack)
    return report


def run_device_streamed(spec: DeviceSpec, stream_dir) -> Dict[str, object]:
    """Run one device while streaming ``telemetry.v1`` to its spool file.

    The device's full report never crosses back to the caller: the
    fixed-size recorder payload rides in the spool's ``device_finish``
    event for :func:`repro.obs.stream.reduce_spools` to fold, and only a
    small summary dict (spec, workload result, final gauges, spool path)
    is returned. The streamer only *reads* recorder state, so the payload
    written to the spool is byte-identical to what :func:`run_device`
    would have returned for the same spec — the differential contract the
    stream tests pin.

    A worker crash emits a ``device_crash`` event before the exception
    propagates, so the spool always records how the run ended.
    """
    spec.validate()
    path = obs_stream.spool_path(stream_dir, spec.index)
    wall_start = time.perf_counter()
    with obs_stream.SpoolWriter(path, spec.index) as writer:
        with obs.observe() as recorder:
            streamer = obs_stream.DeviceTelemetryStreamer(
                writer, recorder.metrics, heartbeat=recorder
            )
            writer.emit("device_start", 0.0, spec=dataclasses.asdict(spec))
            try:
                stack = build_workload_stack(
                    spec.setting,
                    seed=spec.seed,
                    userdata_blocks=spec.userdata_blocks,
                )
                # snapshots are stamped from the stack's sim clock; the
                # recorder's clock stays untouched so span durations match
                # an unstreamed run exactly
                streamer.clock = stack.clock
                result, _trace = run_personality(
                    spec.personality,
                    stack.fs,
                    stack.clock,
                    _workload_rng(spec),
                    ops=spec.ops,
                    content_seed=spec.seed,
                    record=False,
                    stats_device=stack.phone.userdata,
                )
                report = _finish_report(spec, result, recorder, stack)
            except Exception as exc:
                streamer.crash(exc)
                raise
        wall_s = time.perf_counter() - wall_start
        streamer.finish(report["result"], report["obs"], wall_s)
    return {
        "device": spec.index,
        "spec": report["spec"],
        "result": report["result"],
        "gauges": report["obs"]["metrics"]["gauges"],
        "spool": str(path),
        "wall_s": wall_s,
        "crashed": False,
    }


def record_device(
    spec: DeviceSpec,
) -> Tuple[Dict[str, object], List[TraceOp]]:
    """Like :func:`run_device` but also returns the recorded trace."""
    spec.validate()
    with obs.observe() as recorder:
        stack = build_workload_stack(
            spec.setting, seed=spec.seed, userdata_blocks=spec.userdata_blocks
        )
        result, trace = run_personality(
            spec.personality,
            stack.fs,
            stack.clock,
            _workload_rng(spec),
            ops=spec.ops,
            content_seed=spec.seed,
            record=True,
            stats_device=stack.phone.userdata,
        )
        report = _finish_report(spec, result, recorder, stack)
    return report, trace


def replay_on_setting(
    trace_ops: List[TraceOp],
    setting: str,
    seed: int = 0,
    userdata_blocks: int = DEFAULT_USERDATA_BLOCKS,
    content_seed: Optional[int] = None,
) -> Tuple[WorkloadResult, Dict[str, object]]:
    """Replay a recorded trace on a fresh stack of *setting*.

    Returns ``(result, obs payload)``. *content_seed* defaults to *seed*;
    pass the recording's content seed for bit-identical file contents.
    """
    if setting not in FIG4_SETTINGS:
        raise WorkloadError(
            f"unknown setting {setting!r}; known: {FIG4_SETTINGS}"
        )
    with obs.observe() as recorder:
        stack = build_workload_stack(
            setting, seed=seed, userdata_blocks=userdata_blocks
        )
        result = replay_trace(
            trace_ops,
            stack.fs,
            stack.clock,
            content_seed=seed if content_seed is None else content_seed,
            name=f"replay-{setting}",
            stats_device=stack.phone.userdata,
        )
        if stack.system is not None:
            obs.record_deniability_gauges(
                recorder.metrics,
                pool=stack.system.pool,
                allocation=stack.system.config.allocation,
            )
    return result, obs.recorder_payload(recorder)
