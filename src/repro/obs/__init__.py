"""Cross-layer observability: span tracing, metrics, shared event timeline.

``repro.obs`` is the stack's single interception spine. Instrumented code
calls :func:`span` (nested timing intervals on the sim clock),
:func:`mark` (named instants that *also* drive the crash-point
fault-injection machinery), :func:`observe_latency` /
:func:`counter_add` / :func:`gauge_set` (metrics), and
:class:`~repro.blockdev.trace.TracingDevice` publishes its block events
through :func:`publish_io` — so spans, metrics and block traces land on
one shared timeline that the bench telemetry and the adversary toolkit
both consume.

Everything is **zero-overhead-by-default**: with no recorder active every
entry point is a single ``is None`` check and nothing is retained. Wrap a
workload in :func:`observe` to collect, then export with
:mod:`repro.obs.export`.

See ``docs/observability.md`` for the full guide.
"""

# NOTE: import order matters — recorder must be bound before gauges/export
# load, because instrumented modules they pull in do `from repro.obs import
# mark` against this (then partially initialized) package.
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.obs.recorder import (
    GaugeSample,
    MarkRecord,
    Recorder,
    SpanRecord,
    counter_add,
    current,
    enabled,
    gauge_set,
    mark,
    observe,
    observe_latency,
    publish_io,
    span,
)
from repro.obs.gauges import (
    allocation_sequentiality_probe,
    pool_deniability_gauges,
    record_deniability_gauges,
)
from repro.obs.export import (
    SCHEMA_VERSION,
    bench_payload,
    dump_json,
    recorder_payload,
    render_metrics,
    render_span_aggregates,
    render_span_tree,
    write_bench_json,
)
from repro.obs.attribution import (
    attribution,
    layer_of,
    render_attribution,
)
from repro.obs.chrometrace import (
    chrome_trace,
    chrome_trace_events,
    render_chrome_trace,
    validate_trace_events,
)
from repro.obs.flame import folded_stacks, parse_folded, render_folded
from repro.obs.promtext import (
    info_lines,
    parse_prom,
    prom_lines,
    render_prom,
)
from repro.obs.stream import (
    ACCESS_SCHEMA,
    HEALTH_SCHEMA,
    TELEMETRY_SCHEMA,
    DeviceTelemetryStreamer,
    MetricSnapshot,
    ReducedStream,
    SpoolWriter,
    ensure_fresh_stream_dir,
    reduce_spools,
    render_top,
    scan_spools,
    spool_path,
    validate_event,
)
from repro.obs.health import (
    DeviceHealth,
    fleet_medians,
    health_events,
    health_payload,
    render_health,
    score_devices,
    write_health_events,
)

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "GaugeSample",
    "Histogram",
    "MetricRegistry",
    "MarkRecord",
    "Recorder",
    "SpanRecord",
    "counter_add",
    "current",
    "enabled",
    "gauge_set",
    "mark",
    "observe",
    "observe_latency",
    "publish_io",
    "span",
    "attribution",
    "layer_of",
    "render_attribution",
    "chrome_trace",
    "chrome_trace_events",
    "render_chrome_trace",
    "validate_trace_events",
    "folded_stacks",
    "parse_folded",
    "render_folded",
    "allocation_sequentiality_probe",
    "pool_deniability_gauges",
    "record_deniability_gauges",
    "SCHEMA_VERSION",
    "bench_payload",
    "dump_json",
    "recorder_payload",
    "render_metrics",
    "render_span_aggregates",
    "render_span_tree",
    "write_bench_json",
    "info_lines",
    "parse_prom",
    "prom_lines",
    "render_prom",
    "ACCESS_SCHEMA",
    "HEALTH_SCHEMA",
    "TELEMETRY_SCHEMA",
    "DeviceTelemetryStreamer",
    "MetricSnapshot",
    "ReducedStream",
    "SpoolWriter",
    "ensure_fresh_stream_dir",
    "reduce_spools",
    "render_top",
    "scan_spools",
    "spool_path",
    "validate_event",
    "DeviceHealth",
    "fleet_medians",
    "health_events",
    "health_payload",
    "render_health",
    "score_devices",
    "write_health_events",
]
