"""The observability recorder: spans, marks, metrics, one shared timeline.

A :class:`Recorder` is the single event sink of the stack. While one is
active (inside :func:`observe`), instrumented code records

* **spans** — nested begin/end intervals on the simulated clock
  (``with span("pool.commit", clock=...)``);
* **marks** — named instants. :func:`mark` is also the fault-injection
  spine: every mark is forwarded to
  :func:`repro.blockdev.faults.crash_point`, so the crash-point registry
  and the observability timeline share one set of interception sites;
* **I/O events** — every :class:`~repro.blockdev.trace.TraceEvent` a
  :class:`~repro.blockdev.trace.TracingDevice` records is also published
  here, putting block traces on the same timeline as spans and metrics;
* **metrics** — counters, gauges and latency histograms via the attached
  :class:`~repro.obs.metrics.MetricRegistry`.

The active recorder lives in a :class:`contextvars.ContextVar`, so each
thread (and each asyncio task) observes independently: the daemon's
worker threads each run a request under their own recorder. With no
recorder active every entry point degenerates to a context-variable read
and an ``is None`` check (and, for :func:`mark`, the pre-existing
crash-point no-op), so production paths and the calibrated benches pay
nothing: **no events are ever retained while observability is disabled**.

The recorder never draws randomness and never advances a clock, so
enabling it cannot perturb a seeded experiment — bench text outputs are
byte-identical with and without observability.
"""

from __future__ import annotations

import contextlib
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.blockdev.faults import crash_point
from repro.errors import ObsError
from repro.obs.metrics import MetricRegistry


@dataclass
class SpanRecord:
    """One completed (or still-open) span.

    ``wall_start``/``wall_end`` are only populated when the owning
    recorder was opened with ``observe(wall=True)``; they are
    ``time.perf_counter()`` readings and are never serialized into the
    deterministic BENCH payloads — only the trace/flame exporters read
    them, on their opt-in wall-clock timeline.
    """

    index: int
    name: str
    start: float
    parent: Optional[int]  # index of the enclosing span, if any
    depth: int
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    wall_start: Optional[float] = None
    wall_end: Optional[float] = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def wall_duration(self) -> float:
        if self.wall_start is None or self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start


@dataclass(frozen=True)
class MarkRecord:
    """One named instant on the timeline."""

    name: str
    at: float
    wall: Optional[float] = None


@dataclass(frozen=True)
class GaugeSample:
    """One timestamped gauge observation (feeds the trace counter tracks).

    :func:`gauge_set` appends a sample per call, so exporters can render a
    gauge's trajectory over the run instead of just its final value. The
    deterministic payloads keep using the registry's final values only.
    """

    name: str
    at: float
    value: float


class Recorder:
    """Collects spans, marks, I/O events and metrics for one observation.

    *wall* opts into wall-clock capture: every span and mark additionally
    records ``time.perf_counter()`` readings. Wall times are stripped from
    every deterministic payload (:func:`repro.obs.export.recorder_payload`
    never reads them), so enabling them cannot drift a BENCH file.
    """

    def __init__(self, clock=None, wall: bool = False) -> None:
        #: default clock for spans/marks that do not pass their own
        self.clock = clock
        self.wall = wall
        self.spans: List[SpanRecord] = []
        self.marks: List[MarkRecord] = []
        self.io_events: List[object] = []  # TraceEvent, kept duck-typed
        self.gauge_samples: List[GaugeSample] = []
        self.metrics = MetricRegistry()
        self._stack: List[int] = []
        #: mark listeners (see :meth:`add_listener`); empty = zero cost
        self._listeners: List = []

    # -- time ---------------------------------------------------------------

    def _now(self, clock=None) -> float:
        c = clock if clock is not None else self.clock
        return c.now if c is not None else 0.0

    def _wall_now(self) -> Optional[float]:
        return time.perf_counter() if self.wall else None

    # -- recording ----------------------------------------------------------

    def span(self, name: str, clock=None, **attrs) -> "_ActiveSpan":
        return _ActiveSpan(self, name, clock, attrs)

    def mark(self, name: str, clock=None) -> None:
        record = MarkRecord(name, self._now(clock), wall=self._wall_now())
        self.marks.append(record)
        for listener in self._listeners:
            listener(record)

    def add_listener(self, listener) -> None:
        """Subscribe *listener* to every mark recorded from now on.

        Listeners receive the :class:`MarkRecord` synchronously, after it
        lands on the timeline. They must not mutate recorder state —
        marks are the stack's densest interception sites, which makes
        them the natural heartbeat for incremental telemetry emission
        (:class:`repro.obs.stream.DeviceTelemetryStreamer` hooks here).
        With no listeners registered the hook costs one empty-list
        iteration per mark.
        """
        self._listeners.append(listener)

    def sample_gauge(self, name: str, value: float) -> None:
        self.gauge_samples.append(GaugeSample(name, self._now(), float(value)))

    # -- queries ------------------------------------------------------------

    def spans_named(self, name: str) -> List[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: SpanRecord) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent == span.index]

    def roots(self) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent is None]

    def span_aggregates(self) -> Dict[str, Dict[str, float]]:
        """Per-name span statistics: count, total/mean/max duration."""
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            agg = out.setdefault(
                s.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            agg["count"] += 1
            agg["total_s"] += s.duration
            if s.duration > agg["max_s"]:
                agg["max_s"] = s.duration
        for agg in out.values():
            agg["mean_s"] = agg["total_s"] / agg["count"]
        return out

    def mark_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for m in self.marks:
            counts[m.name] = counts.get(m.name, 0) + 1
        return counts

    def timeline(self) -> List[Tuple[float, str, str]]:
        """All events merged into one ``(at, kind, label)`` timeline."""
        entries: List[Tuple[float, str, str]] = []
        for s in self.spans:
            entries.append((s.start, "span-begin", s.name))
            if s.end is not None:
                entries.append((s.end, "span-end", s.name))
        entries.extend((m.at, "mark", m.name) for m in self.marks)
        entries.extend(
            (getattr(e, "at", 0.0), "io", f"{e.op}@{e.block}")
            for e in self.io_events
        )
        entries.sort(key=lambda t: t[0])
        return entries


class _ActiveSpan:
    """Context manager binding one :class:`SpanRecord` to its recorder."""

    __slots__ = ("_recorder", "_name", "_clock", "_attrs", "record")

    def __init__(self, recorder: Recorder, name: str, clock, attrs) -> None:
        self._recorder = recorder
        self._name = name
        self._clock = clock
        self._attrs = attrs
        self.record: Optional[SpanRecord] = None

    def __enter__(self) -> SpanRecord:
        rec = self._recorder
        record = SpanRecord(
            index=len(rec.spans),
            name=self._name,
            start=rec._now(self._clock),
            parent=rec._stack[-1] if rec._stack else None,
            depth=len(rec._stack),
            attrs=dict(self._attrs),
            wall_start=rec._wall_now(),
        )
        rec.spans.append(record)
        rec._stack.append(record.index)
        self.record = record
        return record

    def __exit__(self, *exc: object) -> None:
        assert self.record is not None
        self.record.end = self._recorder._now(self._clock)
        self.record.wall_end = self._recorder._wall_now()
        # tolerate exceptions that unwound inner spans without __exit__
        stack = self._recorder._stack
        if self.record.index in stack:
            del stack[stack.index(self.record.index):]


class _NullSpan:
    """Shared no-op span handed out while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: The active recorder of the calling context: each thread (and each
#: asyncio task) sees its own, so concurrent observations never share one.
_CURRENT: ContextVar[Optional[Recorder]] = ContextVar(
    "repro_obs_recorder", default=None
)


def current() -> Optional[Recorder]:
    """The active recorder, or None while observability is disabled."""
    return _CURRENT.get()


def enabled() -> bool:
    return _CURRENT.get() is not None


@contextlib.contextmanager
def observe(clock=None, wall: bool = False) -> Iterator[Recorder]:
    """Activate a fresh :class:`Recorder` for the ``with`` body.

    The recorder is context-local: it collects what the calling thread
    (or asyncio task) instruments, and nothing another thread does.
    Opening an observation while this context already has one active
    raises :class:`ObsError` — the inner recorder would silently swallow
    every event the outer one expected.

    ``wall=True`` additionally captures wall-clock timings on every span
    and mark (stripped from all deterministic payloads).
    """
    if _CURRENT.get() is not None:
        raise ObsError(
            "observe() called while another recorder is active in this "
            "context; observations do not nest"
        )
    recorder = Recorder(clock=clock, wall=wall)
    token = _CURRENT.set(recorder)
    try:
        yield recorder
    finally:
        _CURRENT.reset(token)


# -- instrumentation entry points (all no-ops when disabled) -----------------


def span(name: str, clock=None, **attrs):
    """Open a span; returns a shared no-op when observability is off."""
    rec = _CURRENT.get()
    if rec is None:
        return _NULL_SPAN
    return rec.span(name, clock=clock, **attrs)


def mark(name: str, clock=None) -> None:
    """Record a named instant AND fire the crash-point machinery.

    This is the unified interception spine: fault-injection plans keyed on
    crash-point names keep working unchanged, and while a recorder is
    active the same site lands on the observability timeline. The mark is
    recorded *before* the crash point fires so an injected power cut still
    leaves the site visible in the timeline.
    """
    rec = _CURRENT.get()
    if rec is not None:
        rec.mark(name, clock)
    crash_point(name)


def counter_add(name: str, value: float = 1.0) -> None:
    rec = _CURRENT.get()
    if rec is not None:
        rec.metrics.counter(name).add(value)


def gauge_set(name: str, value: float) -> None:
    rec = _CURRENT.get()
    if rec is not None:
        rec.metrics.gauge(name).set(value)
        rec.sample_gauge(name, value)


def observe_latency(name: str, seconds: float) -> None:
    """Feed one operation latency into the named histogram."""
    rec = _CURRENT.get()
    if rec is not None:
        rec.metrics.histogram(name).observe(seconds)


def publish_io(event) -> None:
    """Publish a block-trace event onto the shared timeline."""
    rec = _CURRENT.get()
    if rec is not None:
        rec.io_events.append(event)
