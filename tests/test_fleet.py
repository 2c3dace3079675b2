"""Tests for the fleet runner and recorder-payload merging."""

import dataclasses
import functools
import gc
import json
import tempfile
import tracemalloc

import pytest

from repro.errors import WorkloadError
from repro.obs.export import SCHEMA_VERSION, dump_json
from repro.workload import fleet as fleet_module
from repro.workload import (
    DeviceSpec,
    FleetSpec,
    device_specs,
    render_fleet_report,
    run_device,
    run_fleet,
)
from tests.folding import fold_payloads

FLEET = FleetSpec(
    devices=3, setting="mc-p", personality="mixed_daily", ops=30, base_seed=5
)


@pytest.fixture(scope="module")
def fleet_payload():
    return run_fleet(FLEET)


@pytest.fixture(scope="module")
def standalone_reports():
    """run_device() at every seed of FLEET, outside any fleet."""
    return [run_device(spec) for spec in device_specs(FLEET)]


def _sim_view(summary):
    """A device summary without its worker wall time."""
    return {k: v for k, v in summary.items() if k != "wall_s"}


def _assert_summary_matches(summary, report):
    for key in ("spec", "result"):
        assert dump_json(summary[key]) == dump_json(report[key]), key
    assert dump_json(summary["gauges"]) == (
        dump_json(report["obs"]["metrics"]["gauges"])
    )


class TestFleetSpec:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            FleetSpec(devices=0).validate()
        with pytest.raises(WorkloadError):
            FleetSpec(processes=0).validate()
        with pytest.raises(WorkloadError):
            FleetSpec(setting="bogus").validate()

    def test_device_specs_seeds(self):
        specs = device_specs(FLEET)
        assert [s.index for s in specs] == [0, 1, 2]
        assert [s.seed for s in specs] == [5, 6, 7]
        assert all(s.personality == "mixed_daily" for s in specs)


class TestRunFleet:
    def test_serial_equals_parallel(self, fleet_payload):
        serial = run_fleet(dataclasses.replace(FLEET, processes=1))
        assert [_sim_view(s) for s in fleet_payload["devices"]] == (
            [_sim_view(s) for s in serial["devices"]]
        )
        for key in ("totals", "obs_merged"):
            assert json.dumps(fleet_payload[key], sort_keys=True) == (
                json.dumps(serial[key], sort_keys=True)
            )

    def test_sections_match_standalone_runs(
        self, fleet_payload, standalone_reports
    ):
        """Acceptance: each per-device summary carries the spec, result
        and gauges of the standalone run_device() report at its seed."""
        for summary, solo in zip(
            fleet_payload["devices"], standalone_reports
        ):
            _assert_summary_matches(summary, solo)

    def test_totals_sum_devices(self, fleet_payload):
        totals = fleet_payload["totals"]
        results = [r["result"] for r in fleet_payload["devices"]]
        assert totals["ops"] == sum(r["ops"] for r in results)
        assert totals["bytes_written"] == sum(
            r["bytes_written"] for r in results
        )
        assert totals["elapsed_s_max"] == max(r["elapsed_s"] for r in results)

    def test_payload_shape(self, fleet_payload):
        assert fleet_payload["experiment"] == "fleet"
        assert fleet_payload["params"]["devices"] == 3
        assert fleet_payload["obs_merged"]["merged_from"] == 3

    def test_render(self, fleet_payload):
        text = render_fleet_report(fleet_payload)
        assert "Fleet: 3 x mc-p" in text
        assert "all" in text

    def test_single_device_fleet(self):
        payload = run_fleet(FleetSpec(devices=1, ops=20, base_seed=2))
        solo = run_device(DeviceSpec(index=0, ops=20, seed=2))
        _assert_summary_matches(payload["devices"][0], solo)

    def test_temporary_stream_dir_is_removed(self, tmp_path, monkeypatch):
        """Without stream_dir the spools live in a temporary directory
        that is gone afterwards; the merged bytes match a kept one."""
        small = FleetSpec(devices=2, ops=10, userdata_blocks=1024)
        temp_root = tmp_path / "tmp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        payload = run_fleet(small)
        assert list(temp_root.iterdir()) == []
        assert payload["stream"]["dir"] is None
        assert [s["spool"] for s in payload["devices"]] == [None, None]
        kept = run_fleet(small, stream_dir=tmp_path / "kept")
        for key in ("obs_merged", "totals"):
            assert dump_json(payload[key]) == dump_json(kept[key]), key


def _log_and_fail(log_path, spec):
    """A device worker that records its call and then fails with OSError."""
    with open(log_path, "a") as fh:
        fh.write(f"{spec.index}\n")
    raise OSError(f"spool of device {spec.index} is not writable")


class TestPoolFallback:
    def test_worker_oserror_is_not_rerun_serially(self, tmp_path):
        try:
            fleet_module._pool_context().Pool(processes=1).terminate()
        except OSError as exc:
            pytest.skip(f"no worker pool can start here: {exc}")
        log = tmp_path / "calls.log"
        specs = device_specs(FleetSpec(devices=2))
        with pytest.raises(OSError, match="not writable"):
            fleet_module._map_devices(
                functools.partial(_log_and_fail, str(log)), specs, 2
            )
        # each device ran once, in the pool; a worker's error is not
        # a pool start-up failure, so nothing re-ran serially
        assert sorted(log.read_text().split()) == ["0", "1"]


class TestStreamedFleet:
    @pytest.fixture(scope="class")
    def streamed(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fleet-spools")
        small = dataclasses.replace(FLEET, ops=15, userdata_blocks=1024)
        return small, directory, run_fleet(small, stream_dir=directory)

    def test_streamed_merge_matches_in_ram_merge(self, streamed):
        """Acceptance: the spool-reduced observability section is
        byte-identical to the in-memory fold of the standalone
        run_device() payloads at the same seeds."""
        small, _directory, payload = streamed
        folded = fold_payloads(
            [run_device(spec)["obs"] for spec in device_specs(small)]
        )
        assert dump_json(payload["obs_merged"]) == dump_json(folded)

    def test_stream_section(self, streamed):
        small, directory, payload = streamed
        section = payload["stream"]
        assert section["dir"] == str(directory)
        assert section["finished"] == small.devices
        assert section["crashed"] == 0
        assert section["by_event"]["device_finish"] == small.devices
        assert len(list(directory.glob("spool-*.jsonl"))) == small.devices

    def test_summaries_not_full_reports(self, streamed):
        # the streamed payload carries light summaries; the full recorder
        # payloads live only in the spools
        _small, _directory, payload = streamed
        for summary in payload["devices"]:
            assert "obs" not in summary
            assert summary["crashed"] is False
            assert summary["gauges"]
        assert "Fleet:" in render_fleet_report(payload)


def _synthetic_payload(i):
    """A hand-built recorder payload shaped like real device telemetry.

    Gauges are deliberately absent: they are the one metric family whose
    merged output keeps per-device values, so omitting them makes the
    merge's working set provably independent of the payload count.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "spans": {
            "stack.write": {
                "count": 2 + i % 3,
                "total_s": 0.25 + (i % 7) * 0.01,
                "max_s": 0.2,
                "mean_s": 0.125,
            }
        },
        "marks": {"gc.pass": 1 + i % 2},
        "metrics": {
            "counters": {"workload.bytes_written": 4096.0 * (1 + i % 5)},
            "gauges": {},
            "histograms": {
                "io.write_s": {
                    "count": 4,
                    "mean_s": 0.002,
                    "min_s": 0.0005,
                    "max_s": 0.005,
                    "p50_s": 0.001,
                    "p95_s": 0.0046,
                    "p99_s": 0.00492,
                    "buckets": {"0.001": 2, "0.01": 2},
                }
            },
        },
        "io": {"events": 10, "by_op": {"write": 8, "flush": 2}},
    }


class TestMergeScale:
    """The payload fold at 1k payloads: exact associativity and order
    independence, bounded memory, pinned percentile output."""

    N = 1000

    @pytest.fixture(scope="class")
    def payloads(self):
        return [_synthetic_payload(i) for i in range(self.N)]

    def test_associative_regrouping(self, payloads):
        def without_count(merged):
            return dump_json(
                {k: v for k, v in merged.items() if k != "merged_from"}
            )

        whole = fold_payloads(payloads)
        halves = fold_payloads(
            [
                fold_payloads(payloads[: self.N // 2]),
                fold_payloads(payloads[self.N // 2:]),
            ]
        )
        assert without_count(halves) == without_count(whole)

    def test_reversal_invariance(self, payloads):
        assert dump_json(fold_payloads(list(reversed(payloads)))) == (
            dump_json(fold_payloads(payloads))
        )

    def test_pinned_merged_percentiles(self, payloads):
        merged = fold_payloads(payloads)
        hist = merged["metrics"]["histograms"]["io.write_s"]
        assert hist["count"] == 4 * self.N
        assert hist["buckets"] == {"0.001": 2 * self.N, "0.01": 2 * self.N}
        # Histogram.percentile interpolates from each bucket's own lower
        # edge and clamps to min/max: p50 is the top of the (0.0005,
        # 0.001] bucket; p95/p99 land in (0.005, 0.01] and clamp to the
        # observed max
        assert hist["p50_s"] == pytest.approx(0.001)
        assert hist["p95_s"] == 0.005
        assert hist["p99_s"] == 0.005
        assert hist["min_s"] == 0.0005
        assert hist["max_s"] == 0.005

    def test_peak_memory_independent_of_payload_count(self, payloads):
        """100x more payloads must not cost meaningfully more peak memory:
        the accumulator's working set is the metric-name universe."""

        def peak(batch):
            gc.collect()
            tracemalloc.start()
            fold_payloads(batch)
            _current, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak_bytes

        peak(payloads[:10])  # warm caches so both measurements are steady
        small = peak(payloads[:10])
        large = peak(payloads)
        assert large <= max(small, 64 * 1024) * 3, (small, large)


class TestMergeRecorderPayloads:
    def test_merges_device_observations(
        self, fleet_payload, standalone_reports
    ):
        merged = fleet_payload["obs_merged"]
        devices = [r["obs"] for r in standalone_reports]
        # counters sum
        for name, value in merged["metrics"]["counters"].items():
            assert value == pytest.approx(sum(
                d["metrics"]["counters"].get(name, 0) for d in devices
            ))
        # io events sum
        assert merged["io"]["events"] == sum(
            d["io"]["events"] for d in devices
        )
        # gauges average over the devices that reported them
        for name, value in merged["metrics"]["gauges"].items():
            reported = [
                d["metrics"]["gauges"][name] for d in devices
                if name in d["metrics"]["gauges"]
            ]
            assert value == pytest.approx(sum(reported) / len(reported))
        # histogram counts sum, percentile bounds stay within min/max
        for name, hist in merged["metrics"]["histograms"].items():
            assert hist["count"] == sum(
                d["metrics"]["histograms"][name]["count"] for d in devices
                if name in d["metrics"]["histograms"]
            )
            assert hist["min_s"] <= hist["p50_s"] <= hist["max_s"]
            assert hist["min_s"] <= hist["p99_s"] <= hist["max_s"]

    def test_span_means_recomputed(self, fleet_payload):
        merged = fleet_payload["obs_merged"]
        for agg in merged["spans"].values():
            assert agg["mean_s"] == pytest.approx(
                agg["total_s"] / agg["count"]
            )
            assert agg["max_s"] <= agg["total_s"] + 1e-12

    def test_single_payload_fold_reproduces_device_histograms(
        self, standalone_reports
    ):
        """Folding one device's payload alone gives back its own
        histograms byte for byte: the merge and the device share one
        percentile interpolation."""
        for report in standalone_reports:
            own = report["obs"]["metrics"]["histograms"]
            assert own
            folded = fold_payloads([report["obs"]])["metrics"]["histograms"]
            assert dump_json(folded) == dump_json(own)

    def test_empty_merge(self):
        merged = fold_payloads([])
        assert merged["merged_from"] == 0
        assert merged["spans"] == {}
        assert merged["io"]["events"] == 0
