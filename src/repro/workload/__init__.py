"""repro.workload: app-shaped traffic, trace record/replay, fleet runs.

The workload subsystem is how the reproduction measures the PDE stacks
under realistic mobile traffic instead of synthetic dd-style streams:

- :mod:`repro.workload.engine` — the engine: a :class:`WorkloadContext`
  driving logical operations through any :class:`~repro.fs.vfs.Filesystem`,
  deterministic per seed.
- :mod:`repro.workload.personalities` — app personalities (``sqlite_wal``,
  ``camera_burst``, ``app_install``, ``ota_update``, ``messaging``, and the
  ``mixed_daily`` composite with Zipf popularity and bursty arrivals).
- :mod:`repro.workload.trace` — the versioned JSONL trace format plus
  save/load helpers for apples-to-apples replays across stacks.
- :mod:`repro.workload.runner` — single-device runs, recording and
  cross-stack replay.
- :mod:`repro.workload.fleet` — N simulated phones across a process pool,
  streamed to telemetry spools and reduced into one aggregate report.
"""

from repro.workload.engine import (
    WorkloadContext,
    WorkloadResult,
    ZipfSampler,
    op_payload,
    replay_trace,
    run_personality,
)
from repro.workload.fleet import (
    FleetSpec,
    device_specs,
    render_fleet_report,
    run_fleet,
)
from repro.workload.personalities import PERSONALITIES
from repro.workload.runner import (
    DEFAULT_USERDATA_BLOCKS,
    DeviceSpec,
    build_workload_stack,
    record_device,
    replay_on_setting,
    run_device,
)
from repro.workload.trace import (
    APPEND,
    TRACE_FORMAT,
    TRACE_VERSION,
    TraceOp,
    dumps_trace,
    load_trace,
    loads_trace,
    save_trace,
    trace_header,
)

__all__ = [
    "APPEND",
    "DEFAULT_USERDATA_BLOCKS",
    "DeviceSpec",
    "FleetSpec",
    "PERSONALITIES",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceOp",
    "WorkloadContext",
    "WorkloadResult",
    "ZipfSampler",
    "build_workload_stack",
    "device_specs",
    "dumps_trace",
    "load_trace",
    "loads_trace",
    "op_payload",
    "record_device",
    "render_fleet_report",
    "replay_on_setting",
    "replay_trace",
    "run_device",
    "run_fleet",
    "run_personality",
    "save_trace",
    "trace_header",
]
