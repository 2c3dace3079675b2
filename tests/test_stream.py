"""Tests for streaming fleet telemetry (repro.obs.stream + obs.health).

The acceptance contract lives here: a streamed device's spooled payload
is byte-identical to the unstreamed run, and the incremental spool
reducer reproduces the fold of the unstreamed payloads byte-for-byte.
"""

import copy
import json

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import health as obs_health
from repro.obs import stream
from repro.obs.export import dump_json
from repro.obs.metrics import MetricRegistry
from repro.workload.runner import DeviceSpec, run_device, run_device_streamed
from tests.folding import fold_payloads
from tests.oracles.percentile import nearest_rank

SPECS = [
    DeviceSpec(index=i, ops=12, seed=5 + i, userdata_blocks=1024)
    for i in range(3)
]


@pytest.fixture(scope="module")
def spool_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("spools")
    summaries = [run_device_streamed(spec, directory) for spec in SPECS]
    return directory, summaries


@pytest.fixture(scope="module")
def plain_reports():
    return [run_device(spec) for spec in SPECS]


def _events(path):
    return list(stream.iter_spool_events(path))


class TestValidateEvent:
    def test_real_stream_is_clean(self, spool_dir):
        directory, _ = spool_dir
        checked = 0
        for path in sorted(directory.glob("spool-*.jsonl")):
            for event in _events(path):
                assert stream.validate_event(event) == []
                checked += 1
        assert checked > 0

    def test_missing_envelope_field(self):
        problems = stream.validate_event(
            {"schema": stream.TELEMETRY_SCHEMA, "event": "device_crash",
             "device": 0, "sim_t": 0.0, "error": "x"}
        )
        assert any("'seq'" in p for p in problems)

    def test_bool_is_not_a_number(self):
        event = {
            "schema": stream.TELEMETRY_SCHEMA, "event": "gauge_sample",
            "device": 0, "seq": 0, "sim_t": True,
            "gauge": "g", "value": True,
        }
        problems = stream.validate_event(event)
        assert any("sim_t" in p for p in problems)
        assert any("'value'" in p for p in problems)

    def test_unknown_schema_and_event(self):
        assert stream.validate_event(
            {"schema": "telemetry.v9", "event": "snapshot", "device": 0,
             "seq": 0, "sim_t": 0.0}
        ) == ["unknown schema 'telemetry.v9'"]
        problems = stream.validate_event(
            {"schema": stream.TELEMETRY_SCHEMA, "event": "nope",
             "device": 0, "seq": 0, "sim_t": 0.0}
        )
        assert problems == ["unknown telemetry.v1 event type 'nope'"]

    def test_non_object(self):
        assert stream.validate_event([1, 2]) == [
            "event is not an object: list"
        ]


class TestAccessSchema:
    """``access.v1`` — the daemon's request log rides the spool machinery."""

    def _event(self, **overrides):
        event = {
            "schema": stream.ACCESS_SCHEMA, "event": "request",
            "device": -1, "seq": 0, "sim_t": 0.0,
            "route": "healthz", "method": "GET", "status": 200,
            "wall_ms": 0.4, "queue_ms": 0.0,
            "body_bytes": 0, "response_bytes": 123,
            "trace": "feedc0de", "span": "beef",
        }
        event.update(overrides)
        return event

    def test_valid_access_line(self):
        assert stream.validate_event(self._event()) == []

    def test_missing_and_mistyped_fields(self):
        problems = stream.validate_event(self._event(status="200"))
        assert any("'status'" in p for p in problems)
        event = self._event()
        del event["trace"]
        problems = stream.validate_event(event)
        assert any("'trace'" in p for p in problems)
        # bools must not pass as the integer byte counts
        problems = stream.validate_event(self._event(body_bytes=True))
        assert any("'body_bytes'" in p for p in problems)

    def test_unknown_access_event_type(self):
        problems = stream.validate_event(self._event(event="response"))
        assert problems == ["unknown access.v1 event type 'response'"]

    def _write_access_log(self, tmp_path):
        with stream.SpoolWriter(tmp_path / "access.jsonl", -1) as writer:
            writer.emit(
                "request", 0.0, schema=stream.ACCESS_SCHEMA, device=-1,
                route="device.boot", method="POST", status=200,
                wall_ms=1.25, queue_ms=0.1, body_bytes=21,
                response_bytes=64, trace="feedc0de", span="beef",
            )

    def test_scan_spools_skips_service_traffic(self, tmp_path):
        # *.jsonl globbing folds access.jsonl into monitor scans too: the
        # access lines must be recognized and skipped, not misread as a
        # device's simulation telemetry
        self._write_access_log(tmp_path)
        with stream.SpoolWriter(stream.spool_path(tmp_path, 0), 0) as writer:
            writer.emit("device_start", 0.0, spec={"index": 0})
        view = stream.scan_spools(tmp_path)
        assert set(view.devices) == {0}
        assert view.events == 1  # the access line was never folded

    def test_reducer_validates_but_ignores_access_lines(self, tmp_path):
        self._write_access_log(tmp_path)
        reduced = stream.reduce_spools(tmp_path)
        assert reduced.devices == 0
        assert reduced.finished == 0


class TestSpoolWriter:
    def test_zero_padded_paths_sort_in_device_order(self, tmp_path):
        paths = [stream.spool_path(tmp_path, d) for d in (0, 2, 10, 1)]
        assert sorted(p.name for p in paths) == [
            "spool-00000000.jsonl",
            "spool-00000001.jsonl",
            "spool-00000002.jsonl",
            "spool-00000010.jsonl",
        ]

    def test_sequencing_and_sorted_keys(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with stream.SpoolWriter(path, 3) as writer:
            writer.emit("device_start", 0.0, spec={"index": 3})
            writer.emit("device_crash", 1.5, error="boom")
        lines = path.read_text().splitlines()
        assert [json.loads(l)["seq"] for l in lines] == [0, 1]
        assert all(l == json.dumps(json.loads(l), sort_keys=True)
                   for l in lines)


class TestEnsureFreshStreamDir:
    def test_missing_or_empty_dir_is_fine(self, tmp_path):
        assert stream.ensure_fresh_stream_dir(tmp_path / "new") == \
            tmp_path / "new"
        (tmp_path / "empty").mkdir()
        (tmp_path / "empty" / "notes.txt").write_text("not a spool")
        assert stream.ensure_fresh_stream_dir(tmp_path / "empty") == \
            tmp_path / "empty"

    def test_stale_spools_refused_naming_files(self, tmp_path):
        for i in range(7):
            stream.spool_path(tmp_path, i).write_text("{}\n")
        with pytest.raises(ObsError) as exc:
            stream.ensure_fresh_stream_dir(tmp_path)
        message = str(exc.value)
        assert "7 spool file(s)" in message
        assert "spool-00000000.jsonl" in message
        assert "(2 more)" in message  # capped listing
        assert "--force" in message

    def test_force_deletes_only_spools(self, tmp_path):
        stream.spool_path(tmp_path, 0).write_text("{}\n")
        (tmp_path / "health.jsonl").write_text("{}\n")
        (tmp_path / "keep.txt").write_text("hands off")
        stream.ensure_fresh_stream_dir(tmp_path, force=True)
        survivors = sorted(p.name for p in tmp_path.iterdir())
        assert survivors == ["keep.txt"]


class TestStreamedRun:
    def test_event_mix(self, spool_dir):
        directory, _ = spool_dir
        events = _events(stream.spool_path(directory, 0))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "device_start"
        assert kinds[-1] == "device_finish"
        assert kinds.count("device_finish") == 1
        assert "snapshot" in kinds
        assert "span_summary" in kinds
        assert "gauge_sample" in kinds

    def test_spooled_payload_is_byte_identical_to_unstreamed_run(
        self, spool_dir, plain_reports
    ):
        """Acceptance: streaming only *reads* recorder state — the payload
        in device_finish is exactly what run_device() would return."""
        directory, _ = spool_dir
        for spec, plain in zip(SPECS, plain_reports):
            finish = _events(stream.spool_path(directory, spec.index))[-1]
            assert dump_json(finish["obs"]) == dump_json(plain["obs"])
            assert dump_json(finish["result"]) == (
                dump_json(plain["result"])
            )

    def test_summary_shape(self, spool_dir):
        directory, summaries = spool_dir
        for spec, summary in zip(SPECS, summaries):
            assert summary["device"] == spec.index
            assert summary["crashed"] is False
            assert summary["spool"] == str(
                stream.spool_path(directory, spec.index)
            )
            assert summary["wall_s"] > 0.0
            assert "pde.bitmap_occupancy" in summary["gauges"]

    def test_crash_is_spooled_before_the_exception_escapes(
        self, tmp_path, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("injected workload failure")

        monkeypatch.setattr("repro.workload.runner.run_personality", boom)
        with pytest.raises(RuntimeError):
            run_device_streamed(SPECS[0], tmp_path)
        events = _events(stream.spool_path(tmp_path, 0))
        assert events[-1]["event"] == "device_crash"
        assert "injected workload failure" in events[-1]["error"]


class TestReduceSpools:
    def test_reduce_is_byte_identical_to_in_ram_merge(
        self, spool_dir, plain_reports
    ):
        """The tentpole's differential contract."""
        directory, _ = spool_dir
        reduced = stream.reduce_spools(directory)
        merged = fold_payloads([r["obs"] for r in plain_reports])
        assert dump_json(reduced.merged) == dump_json(merged)

    def test_counts_and_summaries(self, spool_dir):
        directory, _ = spool_dir
        reduced = stream.reduce_spools(directory)
        assert reduced.started == reduced.finished == len(SPECS)
        assert reduced.crashed == 0
        assert reduced.devices == len(SPECS)
        assert [s["device"] for s in reduced.summaries] == [0, 1, 2]
        assert reduced.by_event["device_finish"] == len(SPECS)
        assert all(s["result"]["write_mb_s"] > 0.0 for s in reduced.summaries)

    def test_accepts_explicit_file_list(self, spool_dir):
        directory, _ = spool_dir
        files = sorted(directory.glob("spool-*.jsonl"))
        by_dir = stream.reduce_spools(directory)
        by_list = stream.reduce_spools(files)
        assert dump_json(by_list.merged) == dump_json(by_dir.merged)

    def test_keep_summaries_false_drops_per_device_rows(self, spool_dir):
        directory, _ = spool_dir
        reduced = stream.reduce_spools(directory, keep_summaries=False)
        assert reduced.summaries == []
        assert reduced.finished == len(SPECS)

    def test_strict_validation_rejects_bad_events(self, tmp_path):
        path = stream.spool_path(tmp_path, 0)
        path.write_text(json.dumps({"schema": "nope", "event": "x"}) + "\n")
        with pytest.raises(ObsError, match="invalid telemetry event"):
            stream.reduce_spools(tmp_path)

    def test_unknown_bucket_label_is_fatal_for_the_reducer(
        self, tmp_path, plain_reports
    ):
        payload = copy.deepcopy(plain_reports[0]["obs"])
        hist = next(iter(payload["metrics"]["histograms"].values()))
        hist["buckets"]["0.0015"] = 1
        with stream.SpoolWriter(stream.spool_path(tmp_path, 0), 0) as writer:
            writer.emit(
                "device_finish", 1.0,
                result=plain_reports[0]["result"], obs=payload, wall_s=0.1,
            )
        with pytest.raises(ObsError, match="unknown bucket label '0.0015'"):
            stream.reduce_spools(tmp_path)

    def test_malformed_line_is_fatal_for_the_reducer(self, tmp_path):
        path = stream.spool_path(tmp_path, 0)
        path.write_text('{"half": \n')
        with pytest.raises(ObsError, match="malformed spool line"):
            stream.reduce_spools(tmp_path)

    def test_trailing_partial_line_tolerated_only_when_asked(self, tmp_path):
        path = stream.spool_path(tmp_path, 0)
        good = {
            "schema": stream.TELEMETRY_SCHEMA, "event": "device_start",
            "device": 0, "seq": 0, "sim_t": 0.0, "spec": {},
        }
        path.write_text(json.dumps(good) + "\n" + '{"trunc')
        events = list(stream.iter_spool_events(path, tolerate_partial=True))
        assert [e["event"] for e in events] == ["device_start"]
        with pytest.raises(ObsError):
            list(stream.iter_spool_events(path))

    def test_crash_events_reduce_to_crash_summaries(self, tmp_path):
        path = stream.spool_path(tmp_path, 7)
        with stream.SpoolWriter(path, 7) as writer:
            with obs.observe() as recorder:
                streamer = stream.DeviceTelemetryStreamer(
                    writer, recorder.metrics, heartbeat=recorder
                )
                writer.emit("device_start", 0.0, spec={"index": 7})
                streamer.crash(RuntimeError("boom"))
        reduced = stream.reduce_spools(tmp_path)
        assert reduced.crashed == 1 and reduced.finished == 0
        assert reduced.devices == 1
        assert reduced.summaries == [
            {"device": 7, "crashed": True, "error": "RuntimeError('boom')"}
        ]


class TestMonitor:
    def test_scan_and_render(self, spool_dir):
        directory, _ = spool_dir
        view = stream.scan_spools(directory)
        assert sorted(view.devices) == [0, 1, 2]
        assert all(d.state == "done" for d in view.devices.values())
        assert view.counts()["done"] == 3
        text = stream.render_top(view)
        assert "3 done" in text
        finishes = [
            event
            for path in sorted(directory.glob("spool-*.jsonl"))
            for event in _events(path)
            if event["event"] == "device_finish"
        ]
        throughput = [e["result"]["write_mb_s"] for e in finishes]
        wall = [e["wall_s"] for e in finishes]
        qs = (0.5, 0.95, 0.99)
        t50, t95, t99 = (nearest_rank(throughput, q) for q in qs)
        w50, w95, w99 = (nearest_rank(wall, q) for q in qs)
        assert (
            f"throughput MB/s: p50 {t50:.2f}  p95 {t95:.2f}  "
            f"p99 {t99:.2f}  (n=3)"
        ) in text.splitlines()
        assert (
            f"worker wall s:   p50 {w50:.3f}  p95 {w95:.3f}  p99 {w99:.3f}"
        ) in text.splitlines()

    def test_partial_stream_shows_running_devices(self, spool_dir, tmp_path):
        directory, _ = spool_dir
        source = stream.spool_path(directory, 0)
        lines = source.read_text().splitlines()
        # replay only the first half of the stream, plus a torn write
        partial = stream.spool_path(tmp_path, 0)
        partial.write_text(
            "\n".join(lines[: len(lines) // 2]) + '\n{"torn'
        )
        view = stream.scan_spools(tmp_path)
        assert view.devices[0].state == "running"
        assert view.devices[0].ops > 0
        assert "running" in stream.render_top(view)

    def test_empty_directory_renders_placeholder(self, tmp_path):
        assert stream.render_top(stream.scan_spools(tmp_path)) == (
            "(no telemetry spools yet)"
        )

    def test_row_folding(self, spool_dir):
        directory, _ = spool_dir
        view = stream.scan_spools(directory)
        text = stream.render_top(view, max_rows=1)
        assert "... and 2 more device(s)" in text


class TestMetricSnapshot:
    def test_capture_and_delta(self):
        registry = MetricRegistry()
        registry.counter("ops").add(5)
        registry.gauge("occ").set(0.25)
        first = stream.MetricSnapshot.capture(registry)
        assert first.counters == {"ops": 5.0}
        assert first.gauges == {"occ": 0.25}
        assert first.delta(None) == {"ops": 5.0}
        registry.counter("ops").add(2)
        registry.counter("bytes").add(100)
        second = stream.MetricSnapshot.capture(registry)
        assert second.delta(first) == {"bytes": 100.0, "ops": 2.0}
        # unchanged counters are omitted from deltas
        third = stream.MetricSnapshot.capture(registry)
        assert third.delta(second) == {}


def _summary(device, write_mb_s=5.0, amp=2.0, dummy=0.3, ops=10,
             busy=1.0, elapsed=2.0):
    return {
        "device": device,
        "crashed": False,
        "result": {
            "ops": ops,
            "bytes_written": 1_000_000,
            "busy_s": busy,
            "elapsed_s": elapsed,
            "write_mb_s": write_mb_s,
            "io": {"bytes_written": int(1_000_000 * amp)},
        },
        "gauges": {"pde.dummy_amplification": dummy},
        "wall_s": 0.05,
    }


class TestHealthScoring:
    def test_uniform_fleet_is_healthy(self):
        summaries = [_summary(i) for i in range(5)]
        scores = obs_health.score_devices(summaries)
        assert [s.score for s in scores] == [1.0] * 5
        assert all(not s.flags for s in scores)

    def test_write_amplification_outlier(self):
        summaries = [_summary(i) for i in range(4)] + [_summary(4, amp=10.0)]
        scores = obs_health.score_devices(summaries)
        assert scores[4].flags == ["write-amplification-outlier"]
        assert scores[4].score == pytest.approx(0.75)
        assert scores[4].metrics["write_amplification"] == pytest.approx(10.0)

    def test_gauge_drift_vs_fleet_median(self):
        summaries = [_summary(i) for i in range(4)] + [_summary(4, dummy=2.0)]
        scores = obs_health.score_devices(summaries)
        assert "gauge-drift" in scores[4].flags

    def test_stalled_clock(self):
        summaries = [_summary(i) for i in range(3)]
        summaries.append(_summary(3, busy=0.0, elapsed=0.0))
        scores = obs_health.score_devices(summaries)
        assert scores[3].flags == ["stalled-clock"]
        assert scores[3].score == pytest.approx(0.6)

    def test_crash_dominates(self):
        summaries = [_summary(0), {"device": 1, "crashed": True, "error": "x"}]
        scores = obs_health.score_devices(summaries)
        assert scores[1].flags == ["crash"]
        assert scores[1].score == pytest.approx(0.4)

    def test_payload_and_render(self):
        summaries = [_summary(i) for i in range(4)]
        summaries.append({"device": 4, "crashed": True, "error": "x"})
        medians = obs_health.fleet_medians(summaries)
        scores = obs_health.score_devices(summaries, medians)
        payload = obs_health.health_payload(
            scores, medians, params={"devices": 5}
        )
        results = payload["results"]
        assert results["devices"] == 5
        assert results["healthy"] == 4
        assert results["unhealthy"] == 1
        assert results["flag_counts"] == {"crash": 1}
        assert [w["device"] for w in results["worst"]] == [4]
        assert results["medians"]["write_mb_s"] == pytest.approx(5.0)
        text = obs_health.render_health(payload)
        assert "Fleet health: 4/5 healthy" in text
        assert "crash x1" in text
        assert "device 4" in text

    def test_worst_list_is_capped(self):
        summaries = [
            {"device": i, "crashed": True, "error": "x"} for i in range(50)
        ]
        payload = obs_health.health_payload(
            obs_health.score_devices(summaries),
            obs_health.fleet_medians(summaries),
        )
        assert payload["results"]["unhealthy"] == 50
        assert len(payload["results"]["worst"]) == 32

    def test_health_events_validate(self, tmp_path):
        summaries = [_summary(0), {"device": 1, "crashed": True, "error": "x"}]
        scores = obs_health.score_devices(summaries)
        for event in obs_health.health_events(scores):
            assert stream.validate_event(event) == []
        path = obs_health.write_health_events(tmp_path, scores)
        assert path.name == "health.jsonl"
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert stream.validate_event(json.loads(line)) == []
