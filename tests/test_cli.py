"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_commands_registered(self):
        parser = build_parser()
        for command in ("fig4", "table1", "table2", "game", "sidechannel",
                        "crashsim", "workload", "workloads", "fleet",
                        "trace", "metrics", "profile", "flame", "all"):
            args = parser.parse_args([command])
            assert args.command == command
        args = parser.parse_args(["top", "/tmp/spools"])
        assert args.command == "top"
        assert args.stream_dir == "/tmp/spools"
        args = parser.parse_args(["replay", "some.trace"])
        assert args.command == "replay"
        args = parser.parse_args(["bench", "compare", "--baseline", "x"])
        assert args.command == "bench"

    def test_seed_option(self):
        args = build_parser().parse_args(["--seed", "7", "table1"])
        assert args.seed == 7

    def test_json_dir_option(self):
        args = build_parser().parse_args(["table1", "--json-dir", "/tmp/x"])
        assert args.json_dir == "/tmp/x"

    def test_json_dir_defaults_to_committed_results(self):
        # benchmarks/results/ is the single BENCH output location
        args = build_parser().parse_args(["table1"])
        assert args.json_dir == "benchmarks/results"

    def test_userdata_mib_shared_default(self):
        parser = build_parser()
        for command in ("sidechannel", "trace", "metrics", "workload",
                        "workloads", "fleet", "all"):
            args = parser.parse_args([command])
            assert args.userdata_mib == 16, command

    def test_userdata_mib_override(self):
        args = build_parser().parse_args(
            ["sidechannel", "--userdata-mib", "32"]
        )
        assert args.userdata_mib == 32

    @pytest.mark.parametrize("argv", [
        ["fig4", "--trials", "0"],
        ["fig4", "--file-mib", "0"],
        ["table1", "--file-mib", "-1"],
        ["table2", "--trials", "0"],
        ["game", "--games", "0"],
        ["game", "--rounds", "0"],
        ["fleet", "--devices", "0"],
        ["fleet", "--ops", "-3"],
        ["workload", "--ops", "0"],
        ["workloads", "--ops", "0"],
        ["profile", "--ops", "0"],
        ["all", "--games", "0"],
        ["game", "--games", "two"],
    ])
    def test_counts_must_be_positive(self, argv, capsys):
        """Count flags fail at parse time: exit 2 with a usage message."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert f"argument {argv[1]}:" in err

    def test_zero_keeps_meaning_unlimited(self):
        parser = build_parser()
        assert parser.parse_args(["crashsim", "--limit", "0"]).limit == 0
        args = parser.parse_args(["top", "/tmp/spools", "--iterations", "0"])
        assert args.iterations == 0


class TestExecution:
    def test_table1_runs(self, capsys, tmp_path):
        assert main(["table1", "--file-mib", "1",
                     "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "MobiCeal" in out
        payload = json.loads((tmp_path / "BENCH_table1.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["experiment"] == "table1"
        assert "pde.dummy_amplification" in payload["metrics"]["gauges"]

    def test_sidechannel_runs(self, capsys, tmp_path):
        assert main(["sidechannel", "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no leakage found" in out
        assert "RAM" in out
        payload = json.loads(
            (tmp_path / "BENCH_sidechannel.json").read_text()
        )
        assert payload["experiment"] == "sidechannel"
        rows = payload["results"]["rows"]
        assert rows[0]["system"] == "MobiCeal"
        assert not rows[0]["on_disk_leak"] and not rows[0]["ram_leak"]
        assert rows[1]["on_disk_leak"]
        assert rows[2]["ram_leak"]

    def test_fig4_runs_small(self, capsys, tmp_path):
        assert main(["fig4", "--trials", "1", "--file-mib", "1",
                     "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        for setting in ("android", "a-t-p", "mc-p"):
            assert setting in out
        payload = json.loads((tmp_path / "BENCH_fig4.json").read_text())
        assert "emmc.write" in payload["metrics"]["histograms"]

    def test_game_runs_small(self, capsys, tmp_path):
        assert main(["game", "--games", "2", "--rounds", "2",
                     "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "advantage" in out
        assert "MobiPluto" in out
        payload = json.loads((tmp_path / "BENCH_game.json").read_text())
        assert payload["experiment"] == "game"
        assert {r["system"] for r in payload["results"]["rows"]} == {
            "MobiCeal", "MobiPluto",
        }
        assert payload["params"]["workload_trace"] is False

    def test_trace_runs(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "Span tree" in out
        assert "system.initialize" in out
        assert "system.switch.fast" in out

    def test_metrics_runs(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "Latency histograms" in out
        assert "Histogram buckets" in out
        assert "emmc.write" in out
        assert "pde.dummy_amplification" in out

    def test_trace_chrome_export(self, capsys, tmp_path):
        from repro.obs import validate_trace_events

        out_file = tmp_path / "trace.chrome.json"
        assert main(["trace", "--format", "chrome",
                     "--out", str(out_file)]) == 0
        assert "perfetto" in capsys.readouterr().out
        trace = json.loads(out_file.read_text())
        assert trace["metadata"]["timeline"] == "sim"
        assert validate_trace_events(trace["traceEvents"]) == []

    def test_profile_runs_with_artifacts(self, capsys, tmp_path):
        assert main(["profile", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-layer time attribution" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "attribution.json", "stacks.folded", "trace.chrome.json",
        ]
        report = json.loads((tmp_path / "attribution.json").read_text())
        assert "other" not in report["layers"]
        rows = sum(entry["seconds"] for entry in report["layers"].values())
        assert report["total_s"] > 0
        assert rows == pytest.approx(report["total_s"], rel=1e-9, abs=0)

    def test_profile_books_crypto_cpu_to_crypt(self, capsys, tmp_path):
        assert main(["profile", "--workload", "mixed_daily", "--setting",
                     "mc-p", "--ops", "20", "--out", str(tmp_path)]) == 0
        assert "crypt.cpu" in capsys.readouterr().out
        report = json.loads((tmp_path / "attribution.json").read_text())
        layers = report["layers"]
        assert layers["crypt"]["reasons"]["crypt.cpu"] > 0
        assert set(layers["emmc"]["reasons"]) <= {
            "emmc.read", "emmc.write", "emmc.flush",
        }
        rows = sum(entry["seconds"] for entry in layers.values())
        assert rows == pytest.approx(report["total_s"], rel=1e-9, abs=0)

    def test_flame_workload_runs(self, capsys, tmp_path):
        from repro.obs import parse_folded

        out_file = tmp_path / "stacks.folded"
        assert main(["flame", "--workload", "messaging", "--ops", "20",
                     "--out", str(out_file)]) == 0
        stacks = parse_folded(out_file.read_text())
        assert any(
            path.startswith("workload.messaging;") for path in stacks
        )

    def test_crashsim_runs_small(self, capsys, tmp_path):
        assert main(["crashsim", "--scenario", "metadata", "--stride", "4",
                     "--limit", "3", "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "recovery rate" in out
        payload = json.loads((tmp_path / "BENCH_crashsim.json").read_text())
        assert payload["results"]["metadata"]["attempted"] == 3
        assert "thin.meta.area-written" in payload["marks"]

    def test_crashsim_defaults_write_the_committed_bench_bytes(self, tmp_path):
        """``repro crashsim`` and ``pytest benchmarks`` share one payload."""
        assert main(["crashsim", "--json-dir", str(tmp_path)]) == 0
        committed = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "results" / "BENCH_crashsim.json"
        )
        assert (tmp_path / "BENCH_crashsim.json").read_bytes() == (
            committed.read_bytes()
        )

    def test_workload_records_and_replay_reuses_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "mix.trace"
        assert main(["workload", "--personality", "messaging", "--ops", "25",
                     "--trace-out", str(trace_path),
                     "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Workload 'messaging'" in out
        assert trace_path.exists()
        payload = json.loads((tmp_path / "BENCH_workload.json").read_text())
        assert payload["experiment"] == "workload"
        assert payload["result"]["ops"] >= 25

        assert main(["replay", str(trace_path), "--setting", "android",
                     "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Replayed" in out
        replayed = json.loads((tmp_path / "BENCH_replay.json").read_text())
        assert replayed["result"]["ops"] == payload["result"]["ops"]
        assert (
            replayed["result"]["bytes_written"]
            == payload["result"]["bytes_written"]
        )

    def test_game_accepts_workload_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "mix.trace"
        assert main(["workload", "--ops", "25", "--trace-out",
                     str(trace_path), "--json-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["game", "--games", "2", "--rounds", "2",
                     "--workload-trace", str(trace_path),
                     "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cover traffic" in out
        payload = json.loads((tmp_path / "BENCH_game.json").read_text())
        assert payload["params"]["workload_trace"] is True

    def test_workloads_overhead_rows(self, capsys, tmp_path):
        assert main(["workloads", "--ops", "40",
                     "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Workload mix" in out
        payload = json.loads((tmp_path / "BENCH_workloads.json").read_text())
        rows = payload["results"]["rows"]
        assert [r["setting"] for r in rows] == ["android", "a-t-p", "mc-p"]
        assert rows[0]["overhead"] == 0.0

    def test_fleet_runs(self, capsys, tmp_path):
        assert main(["fleet", "--devices", "2", "--ops", "20",
                     "--processes", "1", "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fleet: 2 x mc-p" in out
        payload = json.loads((tmp_path / "BENCH_fleet.json").read_text())
        assert len(payload["devices"]) == 2
        assert payload["obs_merged"]["merged_from"] == 2

    def test_fleet_streams_and_scores_health(self, capsys, tmp_path):
        spools = tmp_path / "spools"
        assert main(["fleet", "--devices", "2", "--ops", "15",
                     "--userdata-mib", "4", "--processes", "1",
                     "--stream-dir", str(spools),
                     "--json-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "telemetry stream:" in out
        assert "Fleet health: " in out
        assert len(list(spools.glob("spool-*.jsonl"))) == 2
        assert (spools / "health.jsonl").exists()
        health = json.loads(
            (tmp_path / "out" / "BENCH_fleet_health.json").read_text()
        )
        assert health["experiment"] == "fleet_health"
        assert health["results"]["devices"] == 2
        payload = json.loads(
            (tmp_path / "out" / "BENCH_fleet.json").read_text()
        )
        assert payload["stream"]["finished"] == 2
        assert payload["obs_merged"]["merged_from"] == 2

    def test_top_renders_a_streamed_fleet(self, capsys, tmp_path):
        spools = tmp_path / "spools"
        assert main(["fleet", "--devices", "2", "--ops", "15",
                     "--userdata-mib", "4", "--processes", "1",
                     "--stream-dir", str(spools),
                     "--json-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["top", str(spools)]) == 0
        out = capsys.readouterr().out
        assert "device" in out and "state" in out
        assert "2 done" in out
        assert "throughput MB/s" in out

    def test_top_missing_directory(self, capsys, tmp_path):
        assert main(["top", str(tmp_path / "nope")]) == 0
        assert "no spool directory" in capsys.readouterr().out

    def test_top_follow_iterations(self, capsys, tmp_path):
        assert main(["top", str(tmp_path / "nope"), "--follow",
                     "--interval", "0.01", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("no spool directory") == 2

    def test_top_once_overrides_follow(self, capsys, tmp_path):
        # --once wins over --follow: one clean snapshot, no degrade notice
        assert main(["top", str(tmp_path / "nope"), "--follow",
                     "--once"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("no spool directory") == 1
        assert captured.err == ""

    def test_top_unbounded_follow_degrades_off_a_tty(self, capsys, tmp_path):
        # under pytest stdout is a pipe, exactly the CI/`| head` case an
        # unbounded follow must not hang: one snapshot + a stderr notice
        assert main(["top", str(tmp_path / "nope"), "--follow"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("no spool directory") == 1
        assert "not a TTY" in captured.err

    def test_fleet_refuses_stale_stream_dir(self, tmp_path):
        spools = tmp_path / "spools"
        spools.mkdir()
        (spools / "spool-0007.jsonl").write_text("{}\n")
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--devices", "1", "--ops", "5",
                  "--userdata-mib", "4", "--processes", "1",
                  "--stream-dir", str(spools),
                  "--json-dir", str(tmp_path / "out")])
        message = str(exc.value.code)
        assert "repro fleet: error:" in message
        assert "spool-0007.jsonl" in message
        assert "--force" in message
        # the stale spool was NOT deleted by the refusal
        assert (spools / "spool-0007.jsonl").exists()

    def test_fleet_force_clears_stale_stream_dir(self, capsys, tmp_path):
        spools = tmp_path / "spools"
        spools.mkdir()
        (spools / "spool-0007.jsonl").write_text("{}\n")
        assert main(["fleet", "--devices", "1", "--ops", "5",
                     "--userdata-mib", "4", "--processes", "1",
                     "--stream-dir", str(spools), "--force",
                     "--json-dir", str(tmp_path / "out")]) == 0
        assert "telemetry stream:" in capsys.readouterr().out
        # the stale device-7 spool is gone; only this run's spool remains
        names = sorted(p.name for p in spools.glob("spool-*.jsonl"))
        assert names == ["spool-00000000.jsonl"]
