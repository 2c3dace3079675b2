"""Streaming fleet telemetry: ``telemetry.v1`` spools and the reducer.

The fleet's only telemetry pipeline. Each fleet worker appends
schema-versioned JSONL events to a per-shard **spool file** while its
device runs; any number of spools can then be folded into merged
percentile telemetry — incrementally, one payload at a time — and tailed
live by ``python -m repro top`` while the fleet is still in flight.

Event stream (one JSON object per line, envelope fields ``schema`` /
``event`` / ``device`` / ``seq`` / ``sim_t``):

========================  ====================================================
event                     payload
========================  ====================================================
``device_start``          ``spec`` — the device's :class:`DeviceSpec` dict
``snapshot``              periodic metric snapshot: cumulative ``counters``,
                          ``counter_deltas`` since the previous snapshot,
                          current ``gauges``
``span_summary``          one span name's final aggregate (``span``, ``agg``)
``gauge_sample``          one deniability-gauge reading (``gauge``, ``value``)
``device_finish``         ``result`` (workload result), ``obs`` (the full
                          recorder payload — a fixed-size aggregate, never
                          raw events), ``wall_s`` (worker wall time)
``device_crash``          ``error`` — the exception that killed the run
========================  ====================================================

``health.v1`` events (see :mod:`repro.obs.health`) share the envelope and
are validated by the same :func:`validate_event`, as do the daemon's
``access.v1`` request-log events (see :mod:`repro.server.app`) — one
``request`` event per HTTP request, carrying the route template, status,
wall/queue latency and trace id. Access events ride the same JSONL spool
machinery but describe *service* traffic, not device simulation, so the
reducer's merged telemetry and the live monitor's device rows ignore
them.

The reducer (:func:`reduce_spools`) folds spools in sorted-filename order
through :class:`~repro.obs.export.PayloadAccumulator`, so its merged
output is byte-identical to that accumulator's fold of the same devices'
:func:`~repro.workload.runner.run_device` payloads, in any order, while
holding O(metric names) state — never O(devices) payloads. Fleet
wall-time and throughput percentiles are exact nearest-rank values
(:func:`repro.util.stats.percentile`) over the per-device rows the
caller already holds: ``ReducedStream.summaries`` or the monitor's
``FleetView.devices``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.errors import ObsError
from repro.obs.export import (
    PayloadAccumulator,
    _render_table,
)
from repro.obs.metrics import MetricRegistry
from repro.obs.recorder import Recorder
from repro.util.stats import percentile

#: Version tag carried by every telemetry event line.
TELEMETRY_SCHEMA = "telemetry.v1"

#: Version tag carried by every health event line (repro.obs.health).
HEALTH_SCHEMA = "health.v1"

#: Version tag carried by every daemon access-log line (repro.server.app).
ACCESS_SCHEMA = "access.v1"

#: Default sim-time interval between periodic ``snapshot`` events.
DEFAULT_SNAPSHOT_INTERVAL_S = 5.0

#: Spool filename prefix; files sort by zero-padded device index so the
#: reducer's sorted-filename fold order is the fleet's device order.
_SPOOL_PREFIX = "spool-"

_COMMON_FIELDS: Dict[str, type] = {
    "schema": str,
    "event": str,
    "seq": int,
    "device": int,
}

#: Required payload fields (and types) per telemetry.v1 event type.
EVENT_FIELDS: Dict[str, Dict[str, tuple]] = {
    "device_start": {"spec": (dict,)},
    "snapshot": {
        "counters": (dict,), "counter_deltas": (dict,), "gauges": (dict,),
    },
    "span_summary": {"span": (str,), "agg": (dict,)},
    "gauge_sample": {"gauge": (str,), "value": (int, float)},
    "device_finish": {
        "result": (dict,), "obs": (dict,), "wall_s": (int, float),
    },
    "device_crash": {"error": (str,)},
}

#: Required payload fields per health.v1 event type.
HEALTH_EVENT_FIELDS: Dict[str, Dict[str, tuple]] = {
    "health": {"score": (int, float), "flags": (list,), "metrics": (dict,)},
}

#: Required payload fields per access.v1 event type. ``device`` in the
#: envelope is the target device id, or -1 for fleet-level routes.
ACCESS_EVENT_FIELDS: Dict[str, Dict[str, tuple]] = {
    "request": {
        "route": (str,),
        "method": (str,),
        "status": (int,),
        "wall_ms": (int, float),
        "queue_ms": (int, float),
        "body_bytes": (int,),
        "response_bytes": (int,),
        "trace": (str,),
        "span": (str,),
    },
}


def spool_path(directory, device: int) -> pathlib.Path:
    """The spool file a device's telemetry stream lands in."""
    return pathlib.Path(directory) / f"{_SPOOL_PREFIX}{device:08d}.jsonl"


def ensure_fresh_stream_dir(directory, force: bool = False) -> pathlib.Path:
    """Refuse a stream directory that already holds spool files.

    A fleet run writes one spool per device and the reducer folds *every*
    ``*.jsonl`` in the directory — so spools left over from a previous run
    (e.g. a larger fleet whose high-numbered devices this run would not
    overwrite) would silently merge stale telemetry into fresh fleet
    stats. With ``force=True`` the stale spools are deleted instead.
    Returns the directory path; raises :class:`ObsError` naming the
    offending files otherwise.
    """
    root = pathlib.Path(directory)
    if not root.is_dir():
        return root
    stale = sorted(root.glob("*.jsonl"))
    if not stale:
        return root
    if force:
        for path in stale:
            path.unlink()
        return root
    shown = ", ".join(p.name for p in stale[:5])
    if len(stale) > 5:
        shown += f", ... ({len(stale) - 5} more)"
    raise ObsError(
        f"stream dir {root} already holds {len(stale)} spool file(s) "
        f"({shown}); a previous run's telemetry would merge into this "
        "fleet's stats — use --force to delete them, or pick a fresh "
        "directory"
    )


def validate_event(event: object) -> List[str]:
    """Schema-check one parsed telemetry/health event line.

    Returns a list of problems (empty = valid), mirroring
    :func:`repro.obs.chrometrace.validate_trace_events` so CI smoke steps
    can print every violation instead of stopping at the first.
    """
    problems: List[str] = []
    if not isinstance(event, dict):
        return [f"event is not an object: {type(event).__name__}"]
    for name, expected in _COMMON_FIELDS.items():
        value = event.get(name)
        if not isinstance(value, expected) or isinstance(value, bool):
            problems.append(
                f"missing or mistyped envelope field {name!r}: {value!r}"
            )
    sim_t = event.get("sim_t")
    if not isinstance(sim_t, (int, float)) or isinstance(sim_t, bool):
        problems.append(f"missing or mistyped envelope field 'sim_t': {sim_t!r}")
    schema = event.get("schema")
    if schema == TELEMETRY_SCHEMA:
        table = EVENT_FIELDS
    elif schema == HEALTH_SCHEMA:
        table = HEALTH_EVENT_FIELDS
    elif schema == ACCESS_SCHEMA:
        table = ACCESS_EVENT_FIELDS
    else:
        problems.append(f"unknown schema {schema!r}")
        return problems
    kind = event.get("event")
    fields = table.get(kind) if isinstance(kind, str) else None
    if fields is None:
        problems.append(f"unknown {schema} event type {kind!r}")
        return problems
    for name, types in fields.items():
        value = event.get(name)
        if not isinstance(value, types) or isinstance(value, bool):
            problems.append(
                f"{kind}: missing or mistyped field {name!r}: {value!r}"
            )
    return problems


class SpoolWriter:
    """Append-only JSONL writer for one device's telemetry stream.

    Every event is serialized with sorted keys and flushed line by line,
    so a concurrently tailing monitor (``repro top``) only ever sees whole
    lines plus at most one partial trailing line.
    """

    def __init__(self, path, device: int) -> None:
        self.path = pathlib.Path(path)
        self.device = device
        self.seq = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w")

    def emit(
        self, event: str, sim_t: float, schema: str = TELEMETRY_SCHEMA,
        **payload,
    ) -> Dict[str, object]:
        """Write one event line; returns the emitted event dict."""
        record: Dict[str, object] = {
            "schema": schema,
            "event": event,
            "device": self.device,
            "seq": self.seq,
            "sim_t": float(sim_t),
        }
        record.update(payload)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        self.seq += 1
        return record

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "SpoolWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class MetricSnapshot:
    """Point-in-time capture of a registry's counters and gauges.

    ``delta(previous)`` computes per-counter increments since an earlier
    snapshot — the payload of the periodic ``telemetry.v1`` ``snapshot``
    events, which lets a tailing monitor derive rates without replaying
    the whole stream.
    """

    __slots__ = ("counters", "gauges")

    def __init__(
        self, counters: Dict[str, float], gauges: Dict[str, float]
    ) -> None:
        self.counters = counters
        self.gauges = gauges

    @classmethod
    def capture(cls, registry: MetricRegistry) -> "MetricSnapshot":
        return cls(
            counters={n: c.value for n, c in sorted(registry.counters.items())},
            gauges={n: g.value for n, g in sorted(registry.gauges.items())},
        )

    def delta(self, previous: Optional["MetricSnapshot"]) -> Dict[str, float]:
        """Counter increments since *previous* (``None`` = since zero)."""
        base = previous.counters if previous is not None else {}
        return {
            name: value - base.get(name, 0.0)
            for name, value in self.counters.items()
            if value != base.get(name, 0.0)
        }


class DeviceTelemetryStreamer:
    """Incrementally streams one device's metrics into its spool.

    *metrics* is the registry whose counters and gauges the ``snapshot``
    events carry. With a *heartbeat* recorder, the streamer hooks its mark
    spine (:meth:`Recorder.add_listener`): whenever the simulated clock
    has advanced at least *interval_s* since the last snapshot, a
    ``snapshot`` event with cumulative counters, counter deltas and
    current gauges is emitted. Without one (the daemon's devices), the
    owner calls :meth:`emit_snapshot` itself, once per op. The streamer
    only ever *reads* metric state, so a streamed run's recorder payload
    is bit-identical to an unstreamed one — which is what lets the spool
    reducer reproduce the fold of unstreamed runs exactly.
    """

    def __init__(
        self,
        writer: SpoolWriter,
        metrics: MetricRegistry,
        interval_s: float = DEFAULT_SNAPSHOT_INTERVAL_S,
        heartbeat: Optional[Recorder] = None,
    ) -> None:
        self.writer = writer
        self.metrics = metrics
        self.interval_s = interval_s
        #: sim clock snapshots are stamped from; set once the stack exists
        self.clock = None
        self._last_emit_t: Optional[float] = None
        self._previous: Optional[MetricSnapshot] = None
        if heartbeat is not None:
            heartbeat.add_listener(self._on_mark)

    def _now(self, fallback: float = 0.0) -> float:
        return self.clock.now if self.clock is not None else fallback

    def _on_mark(self, record) -> None:
        now = self._now(record.at)
        if (
            self._last_emit_t is not None
            and now - self._last_emit_t < self.interval_s
        ):
            return
        self.emit_snapshot(now)

    def emit_snapshot(
        self, sim_t: Optional[float] = None, trace: Optional[str] = None
    ) -> None:
        """Emit one metric snapshot at *sim_t* (default: now).

        *trace* stamps the event with the id of the request that caused
        it, joining the snapshot to that request's access-log line.
        """
        if sim_t is None:
            sim_t = self._now()
        snapshot = MetricSnapshot.capture(self.metrics)
        extra = {} if trace is None else {"trace": trace}
        self.writer.emit(
            "snapshot",
            sim_t,
            counters=snapshot.counters,
            counter_deltas=snapshot.delta(self._previous),
            gauges=snapshot.gauges,
            **extra,
        )
        self._previous = snapshot
        self._last_emit_t = sim_t

    def finish(
        self,
        result: Dict[str, object],
        payload: Dict[str, object],
        wall_s: float,
    ) -> None:
        """Emit the end-of-run events: span summaries, gauge samples, and
        the ``device_finish`` carrying the full (fixed-size) recorder
        payload the reducer folds."""
        sim_t = self._now()
        for name in sorted(payload.get("spans", {})):
            self.writer.emit(
                "span_summary", sim_t, span=name,
                agg=payload["spans"][name],
            )
        gauges = payload.get("metrics", {}).get("gauges", {})
        for name in sorted(gauges):
            self.writer.emit(
                "gauge_sample", sim_t, gauge=name, value=gauges[name]
            )
        self.writer.emit(
            "device_finish", sim_t,
            result=result, obs=payload, wall_s=float(wall_s),
        )

    def crash(self, error: BaseException) -> None:
        self.writer.emit("device_crash", self._now(), error=repr(error))


# ---------------------------------------------------------------------------
# Reducer
# ---------------------------------------------------------------------------


@dataclass
class ReducedStream:
    """The fold of a spool set: merged telemetry plus fleet-level views.

    ``merged`` is byte-identical to the
    :class:`~repro.obs.export.PayloadAccumulator` fold of the same
    devices' unstreamed payloads (the differential contract
    ``tests/test_stream.py`` and CI's fleet-stream smoke enforce).
    """

    merged: Dict[str, object]
    events: int = 0
    by_event: Dict[str, int] = field(default_factory=dict)
    started: int = 0
    finished: int = 0
    crashed: int = 0
    #: small per-device summaries (health-scorer input, top's final rows)
    summaries: List[Dict[str, object]] = field(default_factory=list)

    @property
    def devices(self) -> int:
        return max(self.started, self.finished + self.crashed)


def _spool_files(spools: Union[str, pathlib.Path, Iterable]) -> List[pathlib.Path]:
    """Normalize a directory / iterable of paths into sorted spool files."""
    if isinstance(spools, (str, pathlib.Path)):
        root = pathlib.Path(spools)
        if root.is_dir():
            return sorted(root.glob("*.jsonl"))
        return [root]
    return sorted(pathlib.Path(p) for p in spools)


def iter_spool_events(
    path: pathlib.Path, tolerate_partial: bool = False
) -> Iterator[Dict[str, object]]:
    """Parse one spool file line by line.

    *tolerate_partial* swallows a trailing un-parseable line (a write
    still in flight) — what the live monitor wants; the reducer runs
    strict and raises :class:`ObsError` on any malformed line.
    """
    lines = pathlib.Path(path).read_text().splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError as exc:
            # only a *trailing* partial line is tolerable; a malformed
            # line mid-file is a corrupt spool either way
            if tolerate_partial and lineno == len(lines):
                return
            raise ObsError(f"{path}:{lineno}: malformed spool line: {exc}")


def reduce_spools(
    spools: Union[str, pathlib.Path, Iterable],
    keep_summaries: bool = True,
) -> ReducedStream:
    """Fold any number of spool files into merged percentile telemetry.

    Memory is O(metric names), independent of the number of devices: each
    ``device_finish`` payload is folded into a
    :class:`~repro.obs.export.PayloadAccumulator` and dropped. Files are
    processed in sorted-filename order (the writer's zero-padded device
    naming makes that device order); the fold is exact, so the merged
    output would be the same in any order. A histogram bucket label the
    fold does not know raises :class:`ObsError`, and so does any event
    :func:`validate_event` rejects: spools are input from outside the
    process.

    *keep_summaries* retains a small per-device summary row (the health
    scorer's input); pass ``False`` for the fold with no per-device
    state at all, which the memory benchmark pins.
    """
    accumulator = PayloadAccumulator()
    reduced = ReducedStream(merged={})
    for path in _spool_files(spools):
        for event in iter_spool_events(path):
            problems = validate_event(event)
            if problems:
                raise ObsError(
                    f"{path}: invalid telemetry event: {problems[0]}"
                )
            reduced.events += 1
            kind = event["event"]
            reduced.by_event[kind] = reduced.by_event.get(kind, 0) + 1
            if kind == "device_start":
                reduced.started += 1
            elif kind == "device_crash":
                reduced.crashed += 1
                if keep_summaries:
                    reduced.summaries.append(
                        {
                            "device": event["device"],
                            "crashed": True,
                            "error": event.get("error", ""),
                        }
                    )
            elif kind == "device_finish":
                accumulator.add(event["obs"])
                result = event["result"]
                reduced.finished += 1
                if keep_summaries:
                    reduced.summaries.append(
                        {
                            "device": event["device"],
                            "crashed": False,
                            "result": result,
                            "gauges": event["obs"]
                            .get("metrics", {})
                            .get("gauges", {}),
                            "wall_s": event["wall_s"],
                        }
                    )
    reduced.merged = accumulator.result()
    return reduced


# ---------------------------------------------------------------------------
# Live monitor (repro top)
# ---------------------------------------------------------------------------


@dataclass
class DeviceView:
    """What the monitor knows about one device, from its spool so far."""

    device: int
    state: str = "starting"  # starting | running | done | crashed
    sim_t: float = 0.0
    ops: int = 0
    mb_written: float = 0.0
    write_mb_s: Optional[float] = None
    dummy_amplification: Optional[float] = None
    occupancy: Optional[float] = None
    wall_s: Optional[float] = None


@dataclass
class FleetView:
    """A tail of a whole spool directory, for one monitor refresh."""

    devices: Dict[int, DeviceView] = field(default_factory=dict)
    events: int = 0

    def counts(self) -> Dict[str, int]:
        out = {"starting": 0, "running": 0, "done": 0, "crashed": 0}
        for view in self.devices.values():
            out[view.state] += 1
        return out


def _apply_event(view: DeviceView, event: Dict[str, object]) -> None:
    kind = event.get("event")
    sim_t = event.get("sim_t", 0.0)
    if isinstance(sim_t, (int, float)) and sim_t > view.sim_t:
        view.sim_t = float(sim_t)
    if kind == "device_start":
        view.state = "running"
    elif kind == "snapshot":
        view.state = "running" if view.state == "starting" else view.state
        counters = event.get("counters", {})
        view.ops = int(
            sum(
                value
                for name, value in counters.items()
                if name.startswith("workload.ops.")
            )
        )
        view.mb_written = counters.get("workload.bytes_written", 0.0) / 1e6
        gauges = event.get("gauges", {})
        if "pde.dummy_amplification" in gauges:
            view.dummy_amplification = gauges["pde.dummy_amplification"]
        if "pde.bitmap_occupancy" in gauges:
            view.occupancy = gauges["pde.bitmap_occupancy"]
    elif kind == "gauge_sample":
        if event.get("gauge") == "pde.dummy_amplification":
            view.dummy_amplification = float(event["value"])
        elif event.get("gauge") == "pde.bitmap_occupancy":
            view.occupancy = float(event["value"])
    elif kind == "device_finish":
        view.state = "done"
        result = event.get("result", {})
        view.ops = int(result.get("ops", view.ops))
        view.mb_written = result.get("bytes_written", 0.0) / 1e6
        view.write_mb_s = result.get("write_mb_s")
        view.wall_s = float(event.get("wall_s", 0.0))
    elif kind == "device_crash":
        view.state = "crashed"


def scan_spools(directory) -> FleetView:
    """One tolerant pass over a spool directory for a monitor refresh.

    Partial trailing lines (a fleet still writing) are skipped, never
    fatal; per-device state comes from the latest events seen.
    """
    fleet = FleetView()
    for path in _spool_files(directory):
        for event in iter_spool_events(path, tolerate_partial=True):
            if not isinstance(event, dict):
                continue
            if event.get("schema") == ACCESS_SCHEMA:
                continue  # service traffic, not a device's simulation
            device = event.get("device")
            if not isinstance(device, int) or isinstance(device, bool):
                continue
            fleet.events += 1
            view = fleet.devices.get(device)
            if view is None:
                view = fleet.devices[device] = DeviceView(device=device)
            _apply_event(view, event)
    return fleet


def _fmt_opt(value: Optional[float], spec: str = "{:.2f}") -> str:
    return spec.format(value) if value is not None else "-"


def _tail_percentiles(values: List[float]) -> List[float]:
    return [percentile(values, q) for q in (0.5, 0.95, 0.99)]


def render_top(view: FleetView, max_rows: int = 40) -> str:
    """The ``repro top`` screen: per-device rows plus fleet percentiles."""
    if not view.devices:
        return "(no telemetry spools yet)"
    rows = []
    for device in sorted(view.devices)[:max_rows]:
        d = view.devices[device]
        rows.append(
            [
                str(d.device),
                d.state,
                f"{d.sim_t:.1f}",
                str(d.ops),
                f"{d.mb_written:.1f}",
                _fmt_opt(d.write_mb_s),
                _fmt_opt(d.dummy_amplification),
                _fmt_opt(d.occupancy, "{:.3f}"),
            ]
        )
    table = _render_table(
        ["device", "state", "sim t", "ops", "MB", "MB/s", "dummy-amp",
         "occup"],
        rows,
    )
    hidden = len(view.devices) - min(len(view.devices), max_rows)
    lines = [table]
    if hidden:
        lines.append(f"... and {hidden} more device(s)")
    counts = view.counts()
    lines.append(
        f"fleet: {len(view.devices)} device(s) — "
        f"{counts['running'] + counts['starting']} running, "
        f"{counts['done']} done, {counts['crashed']} crashed "
        f"({view.events} events)"
    )
    done = [d for d in view.devices.values() if d.state == "done"]
    throughput = [d.write_mb_s for d in done if d.write_mb_s is not None]
    if throughput:
        t50, t95, t99 = _tail_percentiles(throughput)
        lines.append(
            f"throughput MB/s: p50 {t50:.2f}  p95 {t95:.2f}  "
            f"p99 {t99:.2f}  (n={len(throughput)})"
        )
    if done:
        w50, w95, w99 = _tail_percentiles([d.wall_s for d in done])
        lines.append(
            f"worker wall s:   p50 {w50:.3f}  p95 {w95:.3f}  "
            f"p99 {w99:.3f}"
        )
    return "\n".join(lines)
