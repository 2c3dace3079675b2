"""Tests for the bench regression gate (repro.bench.compare)."""

import json

import pytest

from repro.bench.compare import (
    LOOSE_TOLERANCE,
    TIGHT_TOLERANCE,
    compare_dirs,
    compare_payloads,
    experiment_metrics,
    flatten_numeric,
    render_compare,
    tolerance_for,
)
from repro.cli import main
from repro.errors import BenchError
from repro.obs import SCHEMA_VERSION


def _payload(mean=12.5, experiment="fig4", seed=7):
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "params": {"seed": seed, "trials": 3},
        "results": {
            "mc-p": {"write": {"mean": mean, "n": 3}},
            "rows": [{"overhead": 0.12, "ok": True}],
        },
    }


def _write_bench(directory, name, payload):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))


class TestFlatten:
    def test_numeric_leaves_with_stable_paths(self):
        metrics = experiment_metrics(_payload())
        assert metrics == {
            "mc-p.write.mean": 12.5,
            "mc-p.write.n": 3.0,
            "rows[0].overhead": 0.12,
        }

    def test_booleans_are_not_metrics(self):
        assert flatten_numeric({"ok": True, "n": 1}) == {"n": 1.0}

    def test_flat_legacy_payload_is_its_own_results(self):
        # BENCH_hotpath.json has no results wrapper
        metrics = experiment_metrics({"rounds": 40, "scenarios": {"a": 1.5}})
        assert metrics == {"rounds": 40.0, "scenarios.a": 1.5}


class TestCompare:
    def test_tolerance_bands(self):
        assert tolerance_for("fig4") == TIGHT_TOLERANCE
        assert tolerance_for("hotpath") == LOOSE_TOLERANCE

    def test_identical_payloads_in_band(self):
        deltas = compare_payloads(_payload(), _payload(), "fig4")
        assert deltas and all(d.ok for d in deltas)

    def test_tight_band_catches_small_drift(self):
        deltas = compare_payloads(
            _payload(mean=12.5), _payload(mean=12.5001), "fig4"
        )
        bad = [d for d in deltas if not d.ok]
        assert [d.metric for d in bad] == ["mc-p.write.mean"]

    def test_loose_band_tolerates_wall_noise(self):
        deltas = compare_payloads(
            _payload(mean=12.5), _payload(mean=15.0), "hotpath"
        )
        assert all(d.ok for d in deltas)
        deltas = compare_payloads(
            _payload(mean=12.5), _payload(mean=25.0), "hotpath"
        )
        assert any(not d.ok for d in deltas)

    def test_vanished_and_new_metrics_flagged(self):
        base, cur = _payload(), _payload()
        del cur["results"]["rows"]
        cur["results"]["extra"] = 1.0
        deltas = {d.metric: d for d in compare_payloads(base, cur, "fig4")}
        assert not deltas["rows[0].overhead"].ok
        assert not deltas["extra"].ok

    def test_compare_dirs_clean(self, tmp_path):
        for d in ("a", "b"):
            _write_bench(tmp_path / d, "fig4", _payload())
        report = compare_dirs(tmp_path / "a", tmp_path / "b")
        assert report.ok and report.files_checked == 1
        assert render_compare(report).endswith("OK")

    def test_compare_dirs_missing_file_fails(self, tmp_path):
        _write_bench(tmp_path / "a", "fig4", _payload())
        # the candidate dir is non-empty (so it passes the sanity gate) but
        # lacks the baseline's benchmark file
        _write_bench(tmp_path / "b", "other", _payload(experiment="other"))
        report = compare_dirs(tmp_path / "a", tmp_path / "b")
        assert not report.ok
        assert report.missing_files == ["BENCH_fig4.json"]

    def test_compare_dirs_nonexistent_candidate_raises(self, tmp_path):
        _write_bench(tmp_path / "a", "fig4", _payload())
        with pytest.raises(BenchError, match="does not exist"):
            compare_dirs(tmp_path / "a", tmp_path / "missing")

    def test_compare_dirs_empty_candidate_raises(self, tmp_path):
        _write_bench(tmp_path / "a", "fig4", _payload())
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "notes.txt").write_text("not a bench file")
        with pytest.raises(BenchError, match="no BENCH_"):
            compare_dirs(tmp_path / "a", tmp_path / "b")

    def test_compare_dirs_empty_baseline_raises(self, tmp_path):
        (tmp_path / "a").mkdir()
        _write_bench(tmp_path / "b", "fig4", _payload())
        with pytest.raises(BenchError, match="baseline"):
            compare_dirs(tmp_path / "a", tmp_path / "b")

    def test_cli_compare_reports_empty_dir_clearly(self, tmp_path, capsys):
        _write_bench(tmp_path / "a", "fig4", _payload())
        (tmp_path / "b").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(
                ["bench", "compare", "--baseline", str(tmp_path / "a"),
                 "--current", str(tmp_path / "b")]
            )
        message = str(exc.value.code)
        assert "repro bench compare: error:" in message
        assert "no BENCH_" in message

    def test_compare_dirs_schema_mismatch_fails(self, tmp_path):
        _write_bench(tmp_path / "a", "fig4", _payload())
        newer = _payload()
        newer["schema_version"] = SCHEMA_VERSION + 1
        _write_bench(tmp_path / "b", "fig4", newer)
        report = compare_dirs(tmp_path / "a", tmp_path / "b")
        assert not report.ok and report.schema_mismatches

    def test_new_benchmark_in_current_is_not_a_regression(self, tmp_path):
        _write_bench(tmp_path / "a", "fig4", _payload())
        _write_bench(tmp_path / "b", "fig4", _payload())
        _write_bench(tmp_path / "b", "novel", _payload(experiment="novel"))
        assert compare_dirs(tmp_path / "a", tmp_path / "b").ok

    def test_cli_compare_exit_codes(self, tmp_path, capsys):
        _write_bench(tmp_path / "a", "fig4", _payload())
        _write_bench(tmp_path / "b", "fig4", _payload())
        assert main(
            ["bench", "compare", "--baseline", str(tmp_path / "a"),
             "--current", str(tmp_path / "b")]
        ) == 0
        _write_bench(tmp_path / "b", "fig4", _payload(mean=13.0))
        with pytest.raises(SystemExit) as exc:
            main(
                ["bench", "compare", "--baseline", str(tmp_path / "a"),
                 "--current", str(tmp_path / "b")]
            )
        assert exc.value.code == 1
        assert "REGRESS" in capsys.readouterr().out

    def test_committed_results_self_compare_clean(self):
        report = compare_dirs("benchmarks/results", "benchmarks/results")
        assert report.ok and report.files_checked >= 6
