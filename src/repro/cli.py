"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro fig4 [--trials N]
    python -m repro table1
    python -m repro table2 [--trials N]
    python -m repro game [--games N] [--workload-trace FILE]
    python -m repro sidechannel
    python -m repro crashsim [--scenario NAME] [--stride N]
    python -m repro workload [--personality NAME] [--trace-out FILE]
    python -m repro replay FILE [--setting NAME]
    python -m repro fleet [--devices N] [--processes N] [--stream-dir DIR]
    python -m repro top DIR [--follow] [--interval S] [--once]
    python -m repro serve [--host H] [--port P] [--db FILE]
    python -m repro trace [--format chrome] [--out FILE]
    python -m repro metrics
    python -m repro profile [--workload NAME] [--out DIR]
    python -m repro flame [--workload NAME] [--out FILE]
    python -m repro bench compare --baseline DIR [--current DIR]
    python -m repro all

Every command prints the paper-style table for its experiment, computed on
the simulated stack, and writes a schema-versioned
``BENCH_<experiment>.json`` with the observability telemetry — per-phase
span durations, latency percentiles and deniability gauges — into
``--json-dir`` (default: ``benchmarks/results``, the committed baseline
directory). ``trace`` and ``metrics`` run a small end-to-end PDE session
under observation and print the span tree / metric tables; ``trace
--format chrome`` exports the same session as a Chrome trace-event JSON
for ui.perfetto.dev. ``profile`` and ``flame`` run the session or a
personality workload and emit the per-layer split of its simulated time
(from the clock's per-reason ledger) / folded flamegraph stacks.
``bench compare`` diffs two results directories under per-experiment
tolerance bands and exits non-zero on regression.
The workload commands drive app-shaped traffic (``repro workload`` records a
trace, ``repro replay`` re-drives one on any stack, ``repro fleet`` runs
N simulated phones in parallel); see docs/workloads.md. Commands building
small stacks directly share the ``--userdata-mib`` flag for the simulated
userdata partition size. See EXPERIMENTS.md for the paper-vs-measured
record and docs/observability.md for the telemetry guide.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from repro import obs
from repro.adversary import (
    MobiCealHarness,
    MobiPlutoHarness,
    MultiSnapshotGame,
    best_advantage,
    side_channel_attack,
    trace_pairs_factory,
)
from repro.android import Phone
from repro.bench import (
    CRASHSIM_STRIDES,
    observed_crashsim,
    observed_fig4,
    observed_table1,
    observed_table2,
    observed_workloads,
    render_fig4,
    render_table,
    render_table1,
    render_table2,
    render_workloads,
)
from repro.core import MobiCealConfig, MobiCealSystem

#: Block size shared by every simulated device profile (4 KiB).
_BLOCK_SIZE = 4096

#: Default simulated userdata partition size for the small-stack commands
#: (sidechannel, trace, metrics, workload, replay, fleet): 16 MiB = 4096
#: blocks, the size the deniability probes and tests standardize on.
DEFAULT_USERDATA_MIB = 16


def _userdata_blocks(args: argparse.Namespace) -> int:
    mib = getattr(args, "userdata_mib", DEFAULT_USERDATA_MIB)
    if mib < 4:
        raise SystemExit("repro: error: --userdata-mib must be >= 4")
    return mib * 1024 * 1024 // _BLOCK_SIZE


def _positive_int(text: str) -> int:
    """argparse type for counts: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _write_json(args: argparse.Namespace, experiment: str, payload) -> None:
    path = obs.write_bench_json(args.json_dir, experiment, payload)
    print(f"[telemetry: {path}]")


def _cmd_fig4(args: argparse.Namespace) -> None:
    results, payload = observed_fig4(
        trials=args.trials,
        file_bytes=args.file_mib * 1024 * 1024,
        userdata_blocks=32768,
        seed=args.seed,
    )
    print(render_fig4(results))
    _write_json(args, "fig4", payload)


def _cmd_table1(args: argparse.Namespace) -> None:
    rows, payload = observed_table1(
        file_bytes=args.file_mib * 1024 * 1024, seed=args.seed
    )
    print(render_table1(rows))
    _write_json(args, "table1", payload)


def _cmd_table2(args: argparse.Namespace) -> None:
    rows, payload = observed_table2(trials=args.trials, seed=args.seed)
    print(render_table2(rows))
    _write_json(args, "table2", payload)


def _cmd_game(args: argparse.Namespace) -> None:
    thresholds = (0.5, 2, 5, 10, 20, 40)
    pairs_factory = None
    workload_trace = getattr(args, "workload_trace", None)
    if workload_trace:
        from repro.workload import load_trace

        _header, trace_ops = load_trace(workload_trace)
        pairs_factory = trace_pairs_factory(trace_ops)
        print(f"[cover traffic: {len(trace_ops)}-op recorded workload trace]")
    rows = []
    serialized = []
    with obs.observe() as recorder:
        for name, factory in (
            ("MobiCeal", lambda i: MobiCealHarness(seed=1000 + i)),
            ("MobiPluto", lambda i: MobiPlutoHarness(seed=2000 + i)),
        ):
            game = MultiSnapshotGame(
                factory,
                rounds=args.rounds,
                seed=args.seed,
                pairs_factory=pairs_factory,
            )
            thresh, adv = best_advantage(
                game, thresholds, games_per_threshold=args.games
            )
            rows.append([name, f"{thresh:g} blocks/round", f"{adv:.3f}"])
            serialized.append(
                {"system": name, "best_threshold": thresh, "advantage": adv}
            )
    print("Multi-snapshot game — best threshold-adversary advantage")
    print(render_table(["system", "best threshold", "advantage"], rows))
    if args.games < 10:
        print(
            f"(note: only {args.games} games per threshold — the empirical "
            "advantage is noisy at this sample size; use --games 20+)"
        )
    payload = obs.bench_payload(
        "game",
        {"rows": serialized},
        recorder,
        extra={
            "params": {
                "games": args.games,
                "rounds": args.rounds,
                "seed": args.seed,
                "thresholds": list(thresholds),
                "workload_trace": bool(workload_trace),
            }
        },
    )
    _write_json(args, "game", payload)


def _cmd_sidechannel(args: argparse.Namespace) -> None:
    rows = []
    serialized = []
    scenarios = (
        ("MobiCeal", True, True),
        ("no-isolation strawman", False, True),
        ("two-way-switch strawman", True, False),
    )
    with obs.observe() as recorder:
        for name, isolate, one_way in scenarios:
            phone = Phone(
                seed=args.seed, userdata_blocks=_userdata_blocks(args)
            )
            system = MobiCealSystem(
                phone,
                MobiCealConfig(
                    num_volumes=4,
                    isolate_side_channels=isolate,
                    one_way_switching=one_way,
                ),
            )
            phone.framework.power_on()
            system.initialize("decoy", hidden_passwords=("hidden",))
            system.boot_with_password("decoy")
            system.start_framework()
            system.screenlock.enter_password("hidden")
            system.store_file("/secret/list.txt", b"sensitive")
            if one_way:
                system.reboot()
                system.boot_with_password("decoy")
                system.start_framework()
            else:
                system.switch_to_public_unsafe("decoy")
            report = side_channel_attack(phone, ["/secret/list.txt"])
            rows.append([name, report.describe()[:80]])
            serialized.append(
                {
                    "system": name,
                    "isolate_side_channels": isolate,
                    "one_way_switching": one_way,
                    "on_disk_leak": report.on_disk_leak,
                    "ram_leak": bool(report.ram_hits),
                    "verdict": report.describe(),
                }
            )
    print("Side-channel attack results")
    print(render_table(["system", "verdict"], rows))
    payload = obs.bench_payload(
        "sidechannel",
        {"rows": serialized},
        recorder,
        extra={
            "params": {
                "seed": args.seed,
                "userdata_blocks": _userdata_blocks(args),
            }
        },
    )
    _write_json(args, "sidechannel", payload)


def _cmd_crashsim(args: argparse.Namespace) -> None:
    if args.stride is not None and args.stride < 1:
        raise SystemExit("repro crashsim: error: --stride must be >= 1")
    if args.limit < 0:
        raise SystemExit("repro crashsim: error: --limit must be >= 0")
    names = (
        list(CRASHSIM_STRIDES) if args.scenario == "all" else [args.scenario]
    )
    strides = {
        name: CRASHSIM_STRIDES[name] if args.stride is None else args.stride
        for name in names
    }
    reports, payload = observed_crashsim(
        strides=strides, seed=args.seed, limit=args.limit
    )
    rows = []
    for name, report in reports.items():
        print(report.render())
        print()
        rows.append(
            [
                name,
                str(report.total_writes),
                str(report.attempted),
                str(len(report.failures)),
                f"{report.recovery_rate:.1%}",
            ]
        )
    print("Crash-recovery sweep — power cut at each sampled write index")
    print(
        render_table(
            ["scenario", "writes", "swept", "failed", "recovery rate"], rows
        )
    )
    _write_json(args, "crashsim", payload)


# ---------------------------------------------------------------------------
# Observability commands: trace / metrics
# ---------------------------------------------------------------------------


def _observed_session(
    seed: int, userdata_blocks: int, wall: bool = False
) -> obs.Recorder:
    """A small end-to-end PDE session under observation.

    Initialize, boot public, write files, fast-switch to the hidden mode,
    write a hidden file, run GC, sync — exercising every instrumented
    layer so the resulting span tree and metric tables are representative.
    *wall* additionally captures wall-clock timestamps for each span. The
    recorder's clock is the phone's, which started the session at zero.
    """
    with obs.observe(wall=wall) as recorder:
        phone = Phone(seed=seed, userdata_blocks=userdata_blocks)
        # default clock for the clock-less spans (ext4 and friends), so
        # the whole tree shares the phone's sim timeline
        recorder.clock = phone.clock
        system = MobiCealSystem(phone, MobiCealConfig(num_volumes=4))
        phone.framework.power_on()
        system.initialize("decoy", hidden_passwords=("hidden",))
        system.boot_with_password("decoy")
        system.start_framework()
        for i in range(4):
            system.store_file(f"/public/file{i}.bin", b"\xa5" * 65536)
        system.sync()
        system.screenlock.enter_password("hidden")
        system.store_file("/hidden/secret.bin", b"\x5a" * 65536)
        system.run_gc()
        system.sync()
        obs.record_deniability_gauges(
            recorder.metrics,
            pool=system.pool,
            allocation=system.config.allocation,
        )
    return recorder


def _cmd_trace(args: argparse.Namespace) -> None:
    if args.format == "chrome":
        recorder = _observed_session(args.seed, _userdata_blocks(args))
        text = obs.render_chrome_trace(recorder, "sim")
        if args.out:
            path = pathlib.Path(args.out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"[chrome trace: {path}] (open in ui.perfetto.dev)")
        else:
            print(text, end="")
        return
    recorder = _observed_session(args.seed, _userdata_blocks(args))
    print("Span tree (simulated time)")
    print(obs.render_span_tree(recorder, max_children=args.max_children))
    print()
    print("Span aggregates")
    print(obs.render_span_aggregates(recorder))


def _cmd_metrics(args: argparse.Namespace) -> None:
    recorder = _observed_session(args.seed, _userdata_blocks(args))
    if getattr(args, "format", "text") == "prom":
        # same renderer the daemon's /metrics?format=prom uses
        print(obs.render_prom(recorder.metrics), end="")
        return
    print(obs.render_metrics(recorder))


# ---------------------------------------------------------------------------
# Profiling commands: profile / flame
# ---------------------------------------------------------------------------

#: The built-in end-to-end PDE session, as a profiling workload name.
SESSION_WORKLOAD = "session"


def _profiled_recorder(args: argparse.Namespace, wall: bool) -> obs.Recorder:
    """Run the selected workload under observation.

    ``session`` is the same end-to-end PDE session ``repro trace`` uses;
    any other name is a workload personality driven on the ``--setting``
    stack (the stack/RNG derivation matches ``repro workload``, so the
    sim timeline of a profile is the timeline of the plain run). Either
    way the recorder's clock is the run's own, fresh at zero, so its
    ledger covers exactly the observed run.
    """
    if args.workload == SESSION_WORKLOAD:
        return _observed_session(args.seed, _userdata_blocks(args), wall)
    from repro.crypto.rng import Rng
    from repro.workload import run_personality
    from repro.bench.stacks import build_fig4_stack

    with obs.observe(wall=wall) as recorder:
        stack = build_fig4_stack(
            args.setting,
            seed=args.seed,
            userdata_blocks=_userdata_blocks(args),
        )
        recorder.clock = stack.clock
        run_personality(
            args.workload,
            stack.fs,
            stack.clock,
            Rng(args.seed).fork(f"workload/{args.workload}"),
            ops=args.ops,
            content_seed=args.seed,
            record=False,
            stats_device=stack.phone.userdata,
        )
        if stack.system is not None:
            obs.record_deniability_gauges(
                recorder.metrics,
                pool=stack.system.pool,
                allocation=stack.system.config.allocation,
            )
    return recorder


def _cmd_profile(args: argparse.Namespace) -> None:
    recorder = _profiled_recorder(args, wall=False)
    clock = recorder.clock
    report = obs.attribution(clock.charged, clock.now)
    print(f"Per-layer time attribution — workload {args.workload!r} "
          "(simulated clock)")
    print(obs.render_attribution(report))
    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts = {
            "trace.chrome.json": obs.render_chrome_trace(recorder, "sim"),
            "stacks.folded": obs.render_folded(
                obs.folded_stacks(recorder, "sim")
            ),
            "attribution.json": json.dumps(report, indent=2, sort_keys=True)
            + "\n",
        }
        for name, text in artifacts.items():
            (out_dir / name).write_text(text)
            print(f"[profile artifact: {out_dir / name}]")


def _cmd_flame(args: argparse.Namespace) -> None:
    recorder = _profiled_recorder(args, wall=args.timeline == "wall")
    text = obs.render_folded(obs.folded_stacks(recorder, args.timeline))
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"[folded stacks: {path}] (feed to flamegraph.pl or speedscope)")
    else:
        print(text, end="")


# ---------------------------------------------------------------------------
# Bench regression gate: bench compare
# ---------------------------------------------------------------------------


def _cmd_bench_compare(args: argparse.Namespace) -> None:
    from repro.bench import compare_dirs, render_compare
    from repro.errors import BenchError

    try:
        report = compare_dirs(args.baseline, args.current)
    except BenchError as exc:
        raise SystemExit(f"repro bench compare: error: {exc}") from None
    print(render_compare(report))
    if not report.ok:
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# Workload commands: workload / replay / fleet
# ---------------------------------------------------------------------------


def _render_workload_result(result_dict) -> str:
    headers = ["ops", "MB written", "MB read", "syncs", "busy (s)", "MB/s"]
    row = [
        str(result_dict["ops"]),
        f"{result_dict['bytes_written'] / 1e6:,.1f}",
        f"{result_dict['bytes_read'] / 1e6:,.1f}",
        str(result_dict["syncs"]),
        f"{result_dict['busy_s']:,.3f}",
        f"{result_dict['write_mb_s']:,.2f}",
    ]
    return render_table(headers, [row])


def _cmd_workload(args: argparse.Namespace) -> None:
    from repro.workload import DeviceSpec, record_device, save_trace

    spec = DeviceSpec(
        setting=args.setting,
        personality=args.personality,
        ops=args.ops,
        seed=args.seed,
        userdata_blocks=_userdata_blocks(args),
    )
    report, trace = record_device(spec)
    print(
        f"Workload {args.personality!r} on {args.setting} "
        f"({args.ops} ops, seed {args.seed})"
    )
    print(_render_workload_result(report["result"]))
    if args.trace_out:
        path = save_trace(
            args.trace_out,
            trace,
            personality=args.personality,
            setting=args.setting,
            ops=args.ops,
            seed=args.seed,
        )
        print(f"[trace: {path}]")
    payload = dict(report)
    payload["schema_version"] = obs.SCHEMA_VERSION
    payload["experiment"] = "workload"
    _write_json(args, "workload", payload)


def _cmd_replay(args: argparse.Namespace) -> None:
    from repro.workload import load_trace, replay_on_setting

    header, trace_ops = load_trace(args.trace_file)
    content_seed = args.content_seed
    if content_seed is None:
        content_seed = header.get("seed", args.seed)
    result, obs_payload = replay_on_setting(
        trace_ops,
        args.setting,
        seed=args.seed,
        userdata_blocks=_userdata_blocks(args),
        content_seed=content_seed,
    )
    print(
        f"Replayed {len(trace_ops)}-op trace "
        f"({header.get('personality', 'unknown')}) on {args.setting}"
    )
    print(_render_workload_result(result.as_dict()))
    payload = {
        "schema_version": obs.SCHEMA_VERSION,
        "experiment": "replay",
        "params": {
            "trace": str(args.trace_file),
            "setting": args.setting,
            "seed": args.seed,
            "content_seed": content_seed,
            "trace_ops": len(trace_ops),
        },
        "result": result.as_dict(),
        "obs": obs_payload,
    }
    _write_json(args, "replay", payload)


def _cmd_workloads_bench(args: argparse.Namespace) -> None:
    rows, payload = observed_workloads(
        personality=args.personality,
        ops=args.ops,
        userdata_blocks=_userdata_blocks(args),
        seed=args.seed,
    )
    print(render_workloads(rows))
    _write_json(args, "workloads", payload)


def _cmd_fleet(args: argparse.Namespace) -> None:
    from repro.errors import ObsError
    from repro.workload import FleetSpec, render_fleet_report, run_fleet

    if args.stream_dir:
        try:
            obs.ensure_fresh_stream_dir(args.stream_dir, force=args.force)
        except ObsError as exc:
            raise SystemExit(f"repro fleet: error: {exc}") from None
    fleet = FleetSpec(
        devices=args.devices,
        setting=args.setting,
        personality=args.personality,
        ops=args.ops,
        base_seed=args.seed,
        userdata_blocks=_userdata_blocks(args),
        processes=args.processes,
    )
    payload = run_fleet(fleet, stream_dir=args.stream_dir)
    print(render_fleet_report(payload))
    if args.stream_dir:
        from repro.obs import health as obs_health

        stream = payload["stream"]
        print(
            f"[telemetry stream: {stream['dir']} — {stream['events']} "
            f"events, {stream['finished']} finished, "
            f"{stream['crashed']} crashed]"
        )
        summaries = payload["devices"]
        medians = obs_health.fleet_medians(summaries)
        scores = obs_health.score_devices(summaries, medians)
        health = obs_health.health_payload(
            scores, medians, params=dict(payload["params"])
        )
        print(obs_health.render_health(health))
        events_path = obs_health.write_health_events(args.stream_dir, scores)
        print(f"[health events: {events_path}]")
        _write_json(args, "fleet_health", health)
    _write_json(args, "fleet", payload)


def _cmd_top(args: argparse.Namespace) -> None:
    import itertools
    import time

    directory = pathlib.Path(args.stream_dir)
    follow = args.follow and not args.once
    if follow and args.iterations <= 0 and not sys.stdout.isatty():
        # an unbounded follow into a pipe (CI log, `| head`, cron mail)
        # never terminates and interleaves refreshes mid-consumer;
        # degrade to one clean single-pass snapshot
        print(
            "repro top: stdout is not a TTY; printing one snapshot "
            "(use --iterations N for a bounded follow)",
            file=sys.stderr,
        )
        follow = False
    if follow:
        ticks = (
            itertools.count()
            if args.iterations <= 0
            else range(args.iterations)
        )
    else:
        ticks = range(1)
    try:
        for i in ticks:
            if i:
                time.sleep(args.interval)
                print()
            if directory.is_dir():
                print(
                    obs.render_top(
                        obs.scan_spools(directory), max_rows=args.rows
                    )
                )
            else:
                print(f"(no spool directory at {directory} yet)")
    except KeyboardInterrupt:
        pass


def _cmd_serve(args: argparse.Namespace) -> None:
    import asyncio
    import signal

    from repro.server import PDEServer

    server = PDEServer(
        host=args.host,
        port=args.port,
        db=args.db,
        stream_dir=args.stream_dir,
        max_workers=args.workers,
        tracing=not args.no_tracing,
        trace_seed=args.seed,
        slow_request_s=args.slow_request_s,
        wedge_deadline_s=args.wedge_deadline_s,
    )

    async def _serve() -> None:
        await server.start()
        # handlers first: a SIGTERM sent on seeing the banner stops cleanly
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_stop)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        print(
            f"repro serve: listening on http://{server.host}:{server.port} "
            f"(db {args.db}, stream dir {args.stream_dir}, "
            f"{server.resumed_devices} device(s) resumed)",
            flush=True,
        )
        await server.run()

    asyncio.run(_serve())
    print("repro serve: shut down cleanly", flush=True)


def _cmd_all(args: argparse.Namespace) -> None:
    for fn in (_cmd_fig4, _cmd_table1, _cmd_table2, _cmd_game,
               _cmd_sidechannel):
        fn(args)
        print()


def _add_json_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json-dir", default="benchmarks/results",
        help="directory for the BENCH_<experiment>.json telemetry file "
        "(default: benchmarks/results, the committed baseline)",
    )


def _add_userdata_mib(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--userdata-mib", type=int, default=DEFAULT_USERDATA_MIB,
        help="simulated userdata partition size in MiB "
        f"(default {DEFAULT_USERDATA_MIB})",
    )


def _add_workload_params(p: argparse.ArgumentParser) -> None:
    from repro.workload import PERSONALITIES
    from repro.bench.stacks import FIG4_SETTINGS

    p.add_argument(
        "--personality", choices=sorted(PERSONALITIES),
        default="mixed_daily", help="app traffic personality",
    )
    p.add_argument(
        "--setting", choices=list(FIG4_SETTINGS), default="mc-p",
        help="storage stack to run against",
    )
    p.add_argument(
        "--ops", type=_positive_int, default=150, help="operations to run"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MobiCeal (DSN 2018) reproduction — regenerate the "
        "paper's tables and figures on the simulated stack.",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig4", help="Fig. 4: sequential throughput")
    p.add_argument("--trials", type=_positive_int, default=5)
    p.add_argument("--file-mib", type=_positive_int, default=4)
    _add_json_dir(p)
    p.set_defaults(func=_cmd_fig4)

    p = sub.add_parser("table1", help="Table I: overhead comparison")
    p.add_argument("--file-mib", type=_positive_int, default=4)
    _add_json_dir(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="Table II: init/boot/switch times")
    p.add_argument("--trials", type=_positive_int, default=2)
    _add_json_dir(p)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("game", help="multi-snapshot security game")
    p.add_argument("--games", type=_positive_int, default=12)
    p.add_argument("--rounds", type=_positive_int, default=3)
    p.add_argument(
        "--workload-trace", default=None, metavar="FILE",
        help="recorded workload trace to use as the game's public cover "
        "traffic (default: the canonical synthetic patterns)",
    )
    _add_json_dir(p)
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("sidechannel", help="the Czeskis side-channel attack")
    _add_userdata_mib(p)
    _add_json_dir(p)
    p.set_defaults(func=_cmd_sidechannel)

    p = sub.add_parser(
        "crashsim", help="crash-at-every-write recovery sweep"
    )
    p.add_argument(
        "--scenario",
        choices=["metadata", "pool", "ext4", "system", "all"],
        default="all",
    )
    p.add_argument(
        "--stride", type=int, default=None,
        help="sweep every Nth write index (1 = exhaustive; default: the "
        "per-scenario strides the benchmark suite uses)",
    )
    p.add_argument(
        "--limit", type=int, default=0,
        help="cap the number of swept indices (0 = no cap)",
    )
    _add_json_dir(p)
    p.set_defaults(func=_cmd_crashsim)

    p = sub.add_parser(
        "workload", help="record one app-personality workload run"
    )
    _add_workload_params(p)
    p.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="save the recorded trace (JSONL) to FILE",
    )
    _add_userdata_mib(p)
    _add_json_dir(p)
    p.set_defaults(func=_cmd_workload)

    p = sub.add_parser(
        "replay", help="re-drive a recorded workload trace on any stack"
    )
    p.add_argument("trace_file", metavar="FILE", help="trace to replay")
    p.add_argument(
        "--setting", default="mc-p",
        help="storage stack to replay against",
    )
    p.add_argument(
        "--content-seed", type=int, default=None,
        help="payload regeneration seed (default: the trace header's seed)",
    )
    _add_userdata_mib(p)
    _add_json_dir(p)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "workloads",
        help="workload-mix overhead: replay one trace across stacks",
    )
    p.add_argument(
        "--personality", default="mixed_daily",
        help="app traffic personality to record",
    )
    p.add_argument("--ops", type=_positive_int, default=150)
    _add_userdata_mib(p)
    _add_json_dir(p)
    p.set_defaults(func=_cmd_workloads_bench)

    p = sub.add_parser(
        "fleet", help="run N simulated phones across a process pool"
    )
    p.add_argument("--devices", type=_positive_int, default=4)
    _add_workload_params(p)
    p.add_argument(
        "--processes", type=int, default=None,
        help="worker processes (default: min(devices, cores); 1 = serial)",
    )
    p.add_argument(
        "--stream-dir", default=None, metavar="DIR",
        help="keep the telemetry.v1 spools (one JSONL file per device) "
        "under DIR instead of a temporary directory; also scores fleet "
        "health (health.jsonl + BENCH_fleet_health.json) and makes the "
        "run tailable with `repro top DIR`",
    )
    p.add_argument(
        "--force", action="store_true",
        help="with --stream-dir: delete stale spool files from a previous "
        "run instead of refusing the non-empty directory",
    )
    _add_userdata_mib(p)
    _add_json_dir(p)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "top",
        help="live monitor of a streaming fleet's telemetry spools",
    )
    p.add_argument(
        "stream_dir", metavar="DIR",
        help="spool directory a `repro fleet --stream-dir DIR` writes to",
    )
    p.add_argument(
        "--follow", action="store_true",
        help="keep refreshing instead of printing one snapshot",
    )
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes with --follow (default 1)",
    )
    p.add_argument(
        "--iterations", type=int, default=0,
        help="refresh count with --follow (0 = until interrupted)",
    )
    p.add_argument(
        "--rows", type=int, default=40,
        help="device rows shown before folding (default 40)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="print one clean snapshot and exit, even with --follow "
        "(what CI steps and pipes want)",
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "serve",
        help="run the PDE-as-a-service daemon hosting a persistent "
        "device fleet over HTTP",
    )
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    p.add_argument(
        "--port", type=int, default=7734,
        help="listen port (default 7734; 0 = ephemeral)",
    )
    p.add_argument(
        "--db", default="fleet.db", metavar="FILE",
        help="SQLite session database; a restarted daemon resumes its "
        "fleet from here (default fleet.db, ':memory:' = ephemeral)",
    )
    p.add_argument(
        "--stream-dir", default="stream", metavar="DIR",
        help="directory for per-device telemetry.v1 spools; point "
        "`repro top DIR` here (default ./stream)",
    )
    p.add_argument(
        "--workers", type=int, default=8,
        help="worker threads executing device ops (default 8)",
    )
    p.add_argument(
        "--no-tracing", action="store_true",
        help="disable request tracing: no X-Repro-Trace ids, no span "
        "capture, no access.v1 log (deterministic metrics are unaffected)",
    )
    p.add_argument(
        "--slow-request-s", type=float, default=1.0, metavar="S",
        help="requests slower than S wall seconds auto-export their span "
        "tree as a chrome-trace artifact into the stream dir (default 1.0)",
    )
    p.add_argument(
        "--wedge-deadline-s", type=float, default=120.0, metavar="S",
        help="/healthz answers 503 once any device op has been waiting or "
        "running longer than S wall seconds (default 120)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace", help="span tree of an observed end-to-end PDE session"
    )
    p.add_argument(
        "--max-children", type=int, default=12,
        help="children shown per span before folding",
    )
    p.add_argument(
        "--format", choices=["tree", "chrome"], default="tree",
        help="tree = indented span tree; chrome = trace-event JSON for "
        "ui.perfetto.dev",
    )
    p.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the chrome trace to FILE instead of stdout",
    )
    _add_userdata_mib(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "metrics", help="counters/gauges/histograms of an observed session"
    )
    p.add_argument(
        "--format", choices=["text", "prom"], default="text",
        help="text = human tables; prom = prometheus text exposition "
        "(the same renderer the daemon's /metrics?format=prom uses)",
    )
    _add_userdata_mib(p)
    p.set_defaults(func=_cmd_metrics)

    def _add_profile_workload(p: argparse.ArgumentParser) -> None:
        from repro.workload import PERSONALITIES
        from repro.bench.stacks import FIG4_SETTINGS as settings

        p.add_argument(
            "--workload",
            choices=[SESSION_WORKLOAD] + sorted(PERSONALITIES),
            default=SESSION_WORKLOAD,
            help="what to profile: the end-to-end PDE session or a "
            "workload personality",
        )
        p.add_argument(
            "--setting", choices=list(settings), default="mc-p",
            help="stack for personality workloads",
        )
        p.add_argument("--ops", type=_positive_int, default=150)
        _add_userdata_mib(p)

    p = sub.add_parser(
        "profile",
        help="per-layer split of a run's simulated time",
    )
    _add_profile_workload(p)
    p.add_argument(
        "--out", default=None, metavar="DIR",
        help="write chrome trace / folded stacks / attribution JSON "
        "under DIR",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "flame", help="folded flamegraph stacks of an observed run"
    )
    _add_profile_workload(p)
    p.add_argument(
        "--timeline", choices=["sim", "wall"], default="sim",
        help="clock for the stack weights (wall implies capturing it)",
    )
    p.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the folded stacks to FILE instead of stdout",
    )
    p.set_defaults(func=_cmd_flame)

    p = sub.add_parser("bench", help="bench regression gate")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    pb = bench_sub.add_parser(
        "compare",
        help="diff two BENCH directories under per-experiment tolerance "
        "bands; exit 1 on regression",
    )
    pb.add_argument(
        "--baseline", required=True,
        help="directory of baseline BENCH_*.json files",
    )
    pb.add_argument(
        "--current", default="benchmarks/results",
        help="directory of freshly generated BENCH_*.json files",
    )
    pb.set_defaults(func=_cmd_bench_compare)

    p = sub.add_parser("all", help="run every experiment")
    p.add_argument("--trials", type=_positive_int, default=2)
    p.add_argument("--file-mib", type=_positive_int, default=2)
    p.add_argument("--games", type=_positive_int, default=8)
    p.add_argument("--rounds", type=_positive_int, default=3)
    _add_userdata_mib(p)
    _add_json_dir(p)
    p.set_defaults(func=_cmd_all)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
