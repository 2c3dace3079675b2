#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the MobiCeal simulator.

One workload per process, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload fig4_dd --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time and with the per-layer wrappers of
``layers.py`` for the other half, and prints the per-layer metrics. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--out DIR`` the full
record (metrics, diagnostics, sample counts, digest) is also written to
``DIR/<workload>-seed<N>-trace<T>.json``; without ``--workload`` every
workload runs, each in its own process, which needs ``--out``.

``--readme`` re-renders the baseline table of README.md from
baseline.json. The workloads, metrics and bounds are described there.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import multiprocessing
import os
import pathlib
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import layers

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = ("fig4_dd", "mixed_daily", "fleet", "daemon")
DEFAULT_SEED = 0

#: the reference box has 2 cores; the load never uses more
FLEET_PROCESSES = 2
DAEMON_CLIENTS = 2

#: daemon request cycle: 12 writes of 16 KiB over 16 paths, each read
#: back, then one snapshot of the whole medium
DAEMON_PATHS = 16
DAEMON_WRITES = 12
DAEMON_PAYLOAD = 16 * 1024
BARRIER_TIMEOUT_S = 120.0

BLOCK = 4096

SIZES = {
    "full": {
        "fig4_dd": {"blocks": 16384, "file_mib": 16, "chunk_mib": 4},
        "mixed_daily": {"traces": 8, "ops": 400, "blocks": 16384},
        "fleet": {"fleets": 4, "devices": 4, "ops": 250, "blocks": 8192},
        "daemon": {"blocks": 4096, "cycles": 1, "setups": 3},
    },
    "tiny": {
        "fig4_dd": {"blocks": 4096, "file_mib": 2, "chunk_mib": 1},
        "mixed_daily": {"traces": 2, "ops": 40, "blocks": 4096},
        "fleet": {"fleets": 1, "devices": 2, "ops": 40, "blocks": 4096},
        "daemon": {"blocks": 4096, "cycles": 1, "setups": 1},
    },
}

#: work of the reference loop, its median time on the reference box
#: (2-vCPU Xeon VM, Python 3.11), and measured seconds per loop run; see
#: HostSpeed
REF_ITERATIONS = 24576
REF_NOMINAL_S = 0.025
REF_EVERY_S = 0.5

now = time.perf_counter


def reference_loop() -> float:
    """Seconds of fixed work shaped like the simulator's: BLAKE2b over
    64-byte messages, 4 KiB slices of a buffer, dict and call churn."""
    start = now()
    keyed = hashlib.blake2b(key=b"reference".ljust(32, b"\0"), digest_size=64)
    chunks = []
    for i in range(REF_ITERATIONS):
        h = keyed.copy()
        h.update(i.to_bytes(8, "little"))
        chunks.append(h.digest())
    blob = b"".join(chunks)
    table = {}
    for i in range(REF_ITERATIONS):
        offset = (i * BLOCK) % len(blob)
        table[i % 257] = blob[offset:offset + BLOCK]
    b"".join(table.values())
    return now() - start


def _reference_worker(conn) -> None:
    """A reference-loop process: one loop per request until told to stop."""
    while conn.recv():
        conn.send(reference_loop())


class HostSpeed:
    """Scales each unit's times to a host running at reference speed.

    The benchmark host is shared: its speed swings by up to 2x, within
    a second and for minutes at a time. The fixed reference loop runs
    before the first unit and after every unit, once per REF_EVERY_S of
    the unit's wall time, and the unit's times are multiplied by
    REF_NOMINAL_S over the mean reference time on either side of it.
    Short units keep the reference close to the work it corrects. The
    loop runs with the workload's parallelism: in *processes* processes
    at once, timed by the slowest, for a workload that keeps that many
    cores busy. The program under test never runs the loop, so a change
    to the program moves only the unit times.
    """

    def __init__(self, processes: int = 1) -> None:
        self.factors = []
        self._conns, self._procs = [], []
        if processes > 1:
            # fork, not spawn: spawn starts multiprocessing's resource
            # tracker, a process that outlives this one
            ctx = multiprocessing.get_context("fork")
            for _ in range(processes):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_reference_worker, args=(child,), daemon=True)
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        self.restart()

    def restart(self) -> None:
        """Fresh reference samples, after work that is not measured."""
        self.last = self._mean_loop(3)

    def close(self) -> None:
        """Stop the reference processes, if any."""
        for conn in self._conns:
            conn.send(False)
            conn.close()
        for proc in self._procs:
            proc.join(30)

    def _loop(self) -> float:
        if not self._conns:
            return reference_loop()
        for conn in self._conns:
            conn.send(True)
        return max(conn.recv() for conn in self._conns)

    def _mean_loop(self, count: int) -> float:
        return statistics.mean(self._loop() for _ in range(count))

    def scale(self, wall: float) -> float:
        """The factor for a unit of *wall* seconds that just ended."""
        before = self.last
        self.last = self._mean_loop(max(1, round(wall / REF_EVERY_S)))
        factor = REF_NOMINAL_S / ((before + self.last) / 2)
        self.factors.append(factor)
        return factor


class Samples:
    """The timings of one run.

    A run repeats a fixed set of units (a Fig. 4 setting, a trace replay,
    a fleet, a daemon request window) in cycles. Every unit does the same
    work on every repeat, so a unit's time is the median of its repeats
    and the run's rates are total work over the sum of those medians:
    a slow spell on the host moves one repeat, not the result. Operation
    latencies are likewise the median over repeats of the same operation.
    Every time is host-speed scaled (HostSpeed) before the medians; the
    measured-time budget counts raw wall seconds.
    """

    def __init__(self, host: HostSpeed = None) -> None:
        self.host = host if host is not None else HostSpeed()
        self.unit_s = {}       # unit -> wall seconds, one per repeat
        self.unit_work = {}    # unit -> (ops, blocks)
        self.op_s = {}         # (unit, op) -> seconds, one per repeat
        self.setup_s = []      # one per set-up repetition
        self.measured_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.unit_digests = {}
        self.peak_rss_mib = 0.0
        self.layers = {}       # traced per-layer totals
        self.traced_s = 0.0    # busy time the layer self times partition
        self.extras = {}       # name -> (value, unit, samples)

    def unit(self, key, wall, ops, blocks, op_times) -> float:
        """Book one repeat of *key*; returns its host-speed factor."""
        factor = self.host.scale(wall)
        self.unit_s.setdefault(key, []).append(wall * factor)
        self.measured_s += wall
        self.attempted += ops
        if self.unit_work.setdefault(key, (ops, blocks)) != (ops, blocks):
            self.problems.append(f"{key}: work differs between repeats")
        for op, seconds in op_times:
            self.op_s.setdefault((key, op), []).append(seconds * factor)
        return factor

    def check(self, unit, outputs) -> None:
        """Every repeat of *unit* must reproduce the same simulated outputs."""
        digest = hashlib.sha256(
            json.dumps(outputs, sort_keys=True).encode()
        ).hexdigest()
        if self.unit_digests.setdefault(str(unit), digest) != digest:
            self.problems.append(f"{unit}: simulated outputs differ between repeats")

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.unit_digests, sort_keys=True).encode()
        ).hexdigest()

    def rates(self):
        """(ops/s, blocks/s) from per-unit medians."""
        timed = sum(statistics.median(v) for v in self.unit_s.values())
        ops = sum(w[0] for w in self.unit_work.values())
        blocks = sum(w[1] for w in self.unit_work.values())
        return ops / timed, blocks / timed

    def add_traced(self, part, busy_s) -> None:
        layers.add(self.layers, part)
        self.traced_s += busy_s


def cycles(samples: Samples, seconds: float):
    """One step per cycle, until the run has measured *seconds* (at least one)."""
    while True:
        yield
        if samples.measured_s >= seconds:
            return


def measured(samples: Samples, tracer, fn, *args):
    """Run *fn* timed; with a tracer, book the layer time it caused."""
    before = tracer.snapshot() if tracer is not None else None
    start = now()
    result = fn(*args)
    wall = now() - start
    if tracer is not None:
        samples.add_traced(layers.delta(tracer.snapshot(), before), wall)
    return wall, result


def storage_traced(tracer):
    """The storage-layer wrappers of *tracer* installed, if there is one."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.installed(layers.storage_targets())


def self_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def image_digest(device) -> str:
    from repro.blockdev.snapshot import capture

    return capture(device).manifest_digest()


def tree_digest(fs) -> str:
    """Digest of every path and file's content under /."""
    h = hashlib.sha256()
    for directory, _dirs, files in fs.walk("/"):
        for name in files:
            path = directory.rstrip("/") + "/" + name
            h.update(path.encode() + b"\0")
            h.update(hashlib.sha256(fs.read_file(path)).digest())
    return h.hexdigest()


def release(stack) -> None:
    """Free a stack now: its object graph has cycles, and a collection
    left to chance would make peak RSS vary from run to run."""
    stack.__dict__.clear()
    gc.collect()


def ramp(rotation: int, nbytes: int) -> bytes:
    unit = bytes(range(256))
    rot = rotation % 256
    unit = unit[rot:] + unit[:rot]
    return (unit * -(-nbytes // 256))[:nbytes]


# -- fig4_dd ------------------------------------------------------------------


def dd_pass(fs, chunks):
    """dd write with fdatasync, then read back; per-op seconds, bad chunks."""
    times, wrong = [], 0
    with fs.open("/dd.bin", "w") as handle:
        for chunk in chunks:
            start = now()
            handle.write(chunk)
            times.append(now() - start)
    start = now()
    fs.flush()
    times.append(now() - start)
    with fs.open("/dd.bin", "r") as handle:
        for chunk in chunks:
            start = now()
            data = handle.read(len(chunk))
            times.append(now() - start)
            wrong += data != chunk
    return times, wrong


def run_fig4_dd(cfg, seed, seconds, tracer, work, op_times) -> Samples:
    from repro.bench.stacks import FIG4_SETTINGS, build_fig4_stack

    chunk = cfg["chunk_mib"] << 20
    chunks = [
        ramp(seed + i, chunk) for i in range(cfg["file_mib"] * 2**20 // chunk)
    ]
    blocks = 2 * len(chunks) * chunk // BLOCK
    s = Samples()
    with storage_traced(tracer):
        for _ in cycles(s, seconds):
            setup = 0.0
            for setting in FIG4_SETTINGS:
                start = now()
                stack = build_fig4_stack(
                    setting, seed=seed, userdata_blocks=cfg["blocks"]
                )
                build = now() - start
                wall, (times, wrong) = measured(s, tracer, dd_pass, stack.fs, chunks)
                setup += build * s.unit(setting, wall, len(times), blocks, enumerate(times))
                if wrong:
                    s.failed += wrong
                    s.problems.append(f"{setting}: {wrong} chunk(s) read back wrong")
                s.check(setting, {
                    "clock": stack.clock.now,
                    "io": stack.phone.userdata.stats.as_dict(),
                    "image": image_digest(stack.phone.userdata),
                })
                release(stack)
            s.setup_s.append(setup)
    s.peak_rss_mib = self_rss_mib()
    return s


# -- mixed_daily ----------------------------------------------------------------


class OpClock:
    """Client-side latency of every filesystem op a workload context issues."""

    OPS = ("mkdir", "write", "read", "unlink", "rename", "fsync")

    def __init__(self) -> None:
        self.times = []

    def _wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.times.append(now() - start)

        return timed

    @contextlib.contextmanager
    def installed(self):
        from repro.workload.engine import WorkloadContext

        with contextlib.ExitStack() as stack:
            for name in self.OPS:
                stack.enter_context(layers.patched(
                    WorkloadContext, name, self._wrap(getattr(WorkloadContext, name))
                ))
            yield self


@contextlib.contextmanager
def timed_ops(enabled: bool):
    """An installed OpClock when *enabled*, else None: runs that report
    end-to-end metrics leave the workload engine unwrapped."""
    if not enabled:
        yield None
        return
    clock = OpClock()
    with clock.installed():
        yield clock


def fs_ops(trace) -> int:
    """Filesystem calls of a trace: every op but think time."""
    return sum(op.op != "think" for op in trace)


def run_mixed_daily(cfg, seed, seconds, tracer, work, op_times) -> Samples:
    from repro.crypto.rng import Rng
    from repro.workload import build_workload_stack, replay_trace, run_personality

    traces = []
    start = now()
    for k in range(cfg["traces"]):
        trace_seed = seed * 1000 + k
        stack = build_workload_stack(
            "android", seed=trace_seed, userdata_blocks=cfg["blocks"]
        )
        _result, trace = run_personality(
            "mixed_daily", stack.fs, stack.clock,
            Rng(trace_seed).fork("workload/mixed_daily"),
            ops=cfg["ops"], content_seed=trace_seed, record=True,
        )
        traces.append((trace_seed, trace, tree_digest(stack.fs)))
        release(stack)
    record_s = now() - start
    s = Samples()
    s.extras["record_s"] = (record_s, "s", f"{len(traces)} traces")
    with storage_traced(tracer), timed_ops(op_times) as clock:
        for _ in cycles(s, seconds):
            setup = 0.0
            for k, (trace_seed, trace, recorded_tree) in enumerate(traces):
                start = now()
                stack = build_workload_stack(
                    "mc-p", seed=trace_seed, userdata_blocks=cfg["blocks"]
                )
                build = now() - start
                if clock is not None:
                    clock.times = []
                wall, result = measured(
                    s, tracer, replay_trace, trace, stack.fs, stack.clock,
                    trace_seed, "replay", stack.phone.userdata,
                )
                ops = fs_ops(trace)
                moved = (result.bytes_written + result.bytes_read) / BLOCK
                times = clock.times if clock is not None else ()
                setup += build * s.unit(k, wall, ops, moved, enumerate(times))
                s.check(k, {
                    "result": result.as_dict(),
                    "clock": stack.clock.now,
                    "image": image_digest(stack.phone.userdata),
                })
                if tree_digest(stack.fs) != recorded_tree:
                    s.failed += ops
                    s.problems.append(f"trace {k}: replayed file tree differs")
                release(stack)
            s.setup_s.append(setup)
    s.peak_rss_mib = self_rss_mib()
    return s


# -- fleet ----------------------------------------------------------------------


def run_fleet_workload(cfg, seed, seconds, tracer, work, op_times) -> Samples:
    from repro.workload import FleetSpec, fleet, run_fleet, runner

    specs = [
        FleetSpec(
            devices=cfg["devices"], setting="mc-p", personality="mixed_daily",
            ops=cfg["ops"], base_seed=seed * 1000 + 100 * f,
            userdata_blocks=cfg["blocks"], processes=FLEET_PROCESSES,
        )
        for f in range(cfg["fleets"])
    ]
    clock = OpClock()
    reduce_s = []
    run_device = fleet.run_device_streamed
    build_stack = runner.build_workload_stack
    reduce_spools = fleet.reduce_spools
    builds = work / "builds"
    builds.mkdir()

    # the set-up of a fleet is its device-stack builds in the pool
    # workers; each worker appends its build times to a file of its own
    def timed_build(*args, **kwargs):
        start = now()
        try:
            return build_stack(*args, **kwargs)
        finally:
            with open(builds / str(os.getpid()), "a") as log:
                log.write(f"{now() - start!r}\n")

    def build_seconds() -> float:
        total = 0.0
        for path in builds.iterdir():
            total += sum(float(line) for line in path.read_text().split())
            path.unlink()
        return total

    # traced runs only: the worker's op times and layer totals ride back
    # to the parent inside the device summary
    @functools.wraps(run_device)
    def device(*args, **kwargs):
        clock.times = []
        before = tracer.snapshot() if tracer is not None else None
        summary = run_device(*args, **kwargs)
        summary["bench"] = {
            "times": clock.times,
            "layers": layers.delta(tracer.snapshot(), before)
            if tracer is not None else {},
        }
        return summary

    def timed_reduce(*args, **kwargs):
        start = now()
        try:
            return reduce_spools(*args, **kwargs)
        finally:
            reduce_s.append(now() - start)

    device_wall, efficiency = [], []
    patches = [layers.patched(runner, "build_workload_stack", timed_build)]
    if op_times:
        patches += [
            # the pool pickles the worker by its home module's name, so the
            # wrapper replaces it there as well as where the fleet calls it
            layers.patched(runner, "run_device_streamed", device),
            layers.patched(fleet, "run_device_streamed", device),
            layers.patched(fleet, "reduce_spools", timed_reduce),
            clock.installed(),
        ]
    with contextlib.ExitStack() as stack:
        s = Samples(stack.enter_context(
            contextlib.closing(HostSpeed(processes=FLEET_PROCESSES))
        ))
        for patch in patches:
            stack.enter_context(patch)
        stack.enter_context(storage_traced(tracer))
        for _ in cycles(s, seconds):
            setup = 0.0
            for f, spec in enumerate(specs):
                stream = tempfile.mkdtemp(dir=work)
                start = now()
                out = run_fleet(spec, stream_dir=stream)
                wall = now() - start
                shutil.rmtree(stream)
                summaries = out["devices"]
                bench = [summary.pop("bench", None) for summary in summaries]
                think = out["obs_merged"]["metrics"]["counters"].get("workload.ops.think", 0)
                ops = out["totals"]["ops"] - int(think)
                moved = (out["totals"]["bytes_written"] + out["totals"]["bytes_read"]) / BLOCK
                factor = s.unit(f, wall, ops, moved, (
                    ((d, i), t)
                    for d, b in enumerate(bench) if b is not None
                    for i, t in enumerate(b["times"])
                ))
                finished = out["stream"]["finished"]
                if finished != spec.devices or out["stream"]["crashed"] or any(
                    summary["crashed"] for summary in summaries
                ):
                    s.failed += ops
                    s.problems.append(f"fleet {f}: {finished} of {spec.devices} devices finished")
                for summary in summaries:
                    s.check((f, summary["device"]), {
                        "result": summary["result"], "gauges": summary["gauges"],
                    })
                walls = sum(summary["wall_s"] for summary in summaries)
                device_wall.append(walls * factor)
                efficiency.append(walls / (FLEET_PROCESSES * wall))
                setup += factor * build_seconds()
                if tracer is not None:
                    for b in bench:
                        s.add_traced(b["layers"], 0.0)
                    s.traced_s += walls
            s.setup_s.append(setup)
    n = f"{len(device_wall)} fleet runs"
    s.extras["fleet.device_wall_s"] = (statistics.median(device_wall), "s", n)
    s.extras["fleet.parallel_efficiency"] = (statistics.median(efficiency), "frac", n)
    if reduce_s:
        s.extras["obs.stream.reduce_s"] = (statistics.median(reduce_s), "s", n)
    # the pool workers (and the reference processes, which are smaller)
    # have all been waited for by now
    s.peak_rss_mib = self_rss_mib(resource.RUSAGE_CHILDREN)
    return s


# -- daemon -----------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    # the benchmark measures the shipped defaults: NumPy core, default store
    for name in ("REPRO_STORE", "REPRO_NO_NUMPY"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Daemon:
    """``python -m repro serve`` (or the traced launcher) as a subprocess."""

    def __init__(self, workdir: pathlib.Path, seed: int, dump=None) -> None:
        workdir.mkdir(parents=True)
        serve = [
            "--seed", str(seed), "serve", "--port", "0",
            "--db", str(workdir / "fleet.db"),
            "--stream-dir", str(workdir / "stream"),
        ]
        if dump is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(dump), *serve]
        self.log = workdir / "stderr.log"
        self._stderr = open(self.log, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=workdir, env=child_env(),
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        self.port = self._read_port(timeout=60.0)

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and self.proc.poll() is None:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if ready:
                line = self.proc.stdout.readline().decode()
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    return int(match.group(1))
        self.stop()
        raise RuntimeError(
            "daemon did not start:\n" + self.log.read_text()[-2000:]
        )

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


class DeviceLoad:
    """One client thread's closed-loop request stream against one device."""

    def __init__(self, client, device_id: int, seed: int) -> None:
        self.client = client
        self.device = device_id
        self.seed = seed
        self.writes = 0
        self.last = {}
        self.failed = 0
        self.times = []  # (kind, seconds)

    def _timed(self, kind, fn, *args):
        from repro.server.client import ServerAPIError

        start = now()
        try:
            result = fn(self.device, *args)
        except (ServerAPIError, OSError):
            result = None
            self.failed += 1
        self.times.append((kind, now() - start))
        return result

    def window(self, cycles_per_window: int) -> None:
        for _ in range(cycles_per_window):
            for _ in range(DAEMON_WRITES):
                path = f"/sdcard/f{self.writes % DAEMON_PATHS}.bin"
                data = hashlib.blake2b(
                    f"{self.seed}:{self.writes}".encode(), digest_size=64
                ).digest() * (DAEMON_PAYLOAD // 64)
                self.writes += 1
                wrote = self._timed("write", self.client.write, path, data)
                self.last[path] = data if wrote is not None else None
                read = self._timed("read", self.client.read_file, path)
                if read is not None and read != self.last[path]:
                    self.failed += 1
            self._timed("snapshot", self.client.snapshot)


def wall_histograms(client):
    """{name: (count, sum seconds)} of the daemon's wall-clock histograms."""
    wall = client.metrics()["wall"]["histograms"]
    return {name: (h["count"], h["count"] * h["mean_s"]) for name, h in wall.items()}


def executor_busy(client):
    """(worker-seconds spent on ops, worker-seconds available) since start."""
    health = client.healthz()
    executor = health["executor"]
    capacity = health["uptime_s"] * executor["workers"]
    return executor["busy_fraction"] * capacity, capacity


def run_daemon(cfg, seed, seconds, tracer, work, op_times) -> Samples:
    from repro.server.client import ServerClient

    s = Samples()
    servers = []
    dump = work / "layers" if tracer is not None else None
    reps = 1 if tracer is not None else cfg["setups"]
    try:
        for rep in range(reps):
            start = now()
            server = Daemon(work / f"serve{rep}", seed, dump)
            servers.append(server)
            client = ServerClient(port=server.port, timeout=60.0)
            client.wait_healthy(timeout=60.0)
            devices = []
            for t in range(DAEMON_CLIENTS):
                created = client.create_device(
                    f"bench{t}", seed=seed * 1000 + t,
                    userdata_blocks=cfg["blocks"],
                )
                client.boot(int(created["id"]), "decoy")
                devices.append(int(created["id"]))
            setup = now() - start
            s.setup_s.append(setup * s.host.scale(setup))
            if rep + 1 < reps:
                server.stop()
        loads = [
            DeviceLoad(ServerClient(port=server.port, timeout=60.0), d, seed * 1000 + t)
            for t, d in enumerate(devices)
        ]
        _drive_daemon(s, loads, client, server, cfg, seconds, dump)
        s.peak_rss_mib = server.peak_rss_mib()
    finally:
        for server in servers:
            server.stop()
    if tracer is not None:
        final = json.loads(dump.with_name(dump.name + ".final.json").read_text())
        mark = json.loads(dump.with_name(dump.name + ".mark.json").read_text())
        s.add_traced(layers.delta(final, mark), 0.0)
    return s


def _drive_daemon(s, loads, client, server, cfg, seconds, dump) -> None:
    """Windows of request cycles, every client thread in lock step.

    Window 0 warms the daemon up and is not measured. Between windows the
    clients wait at a barrier, so the coordinator can scrape metrics, mark
    the traced layer totals, pin the devices' state after window 1 and run
    the reference loop on an idle daemon. A client that finishes its window
    first waits for the other; ``daemon.client_busy_frac`` reports the share
    of the window walls the clients spent in requests.
    """
    barrier = threading.Barrier(len(loads) + 1)
    stop = threading.Event()
    errors = []

    def client_main(load):
        try:
            while True:
                barrier.wait(BARRIER_TIMEOUT_S)
                if stop.is_set():
                    return
                load.window(cfg["cycles"])
                barrier.wait(BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=client_main, args=(load,), daemon=True)
        for load in loads
    ]
    for thread in threads:
        thread.start()
    client_s, window_s, latency = [], [], {}
    finished = False
    try:
        window = 0
        while True:
            barrier.wait(BARRIER_TIMEOUT_S)
            start = now()
            barrier.wait(BARRIER_TIMEOUT_S)
            wall = now() - start
            if window == 0:
                for load in loads:
                    load.times.clear()
                hist0, busy0 = wall_histograms(client), executor_busy(client)
                if dump is not None:
                    _mark_layers(server, dump)
                s.host.restart()
            else:
                ops = sum(len(load.times) for load in loads)
                moved = sum(
                    1 for load in loads for kind, _ in load.times if kind != "snapshot"
                ) * DAEMON_PAYLOAD / BLOCK
                factor = s.unit("window", wall, ops, moved, (
                    ((t, i), sec)
                    for t, load in enumerate(loads)
                    for i, (_kind, sec) in enumerate(load.times)
                ))
                window_s.append(wall)
                for load in loads:
                    for kind, sec in load.times:
                        latency.setdefault(kind, []).append(sec * factor)
                        client_s.append(sec)
                    load.times.clear()
                if window == 1:
                    for t, load in enumerate(loads):
                        state = client.device(load.device)
                        s.check(("device", t), {
                            k: state[k] for k in ("sim_t", "image_digest", "counters")
                        })
            if window >= 1 and s.measured_s >= seconds:
                stop.set()
                barrier.wait(BARRIER_TIMEOUT_S)
                finished = True
                break
            window += 1
    finally:
        stop.set()
        if not finished:
            barrier.abort()
        for thread in threads:
            thread.join(BARRIER_TIMEOUT_S)
    if errors:
        raise errors[0]
    failed = sum(load.failed for load in loads)
    if failed:
        s.failed += failed
        s.problems.append(f"daemon: {failed} request(s) failed or read back wrong")
    s.extras["daemon.client_busy_frac"] = (
        sum(client_s) / (len(loads) * sum(window_s)), "frac",
        f"{len(window_s)} windows x {len(loads)} clients",
    )
    if dump is not None:
        s.traced_s += sum(client_s)
        return
    hist1, busy1 = wall_histograms(client), executor_busy(client)

    def mean_ms(name):
        count = hist1[name][0] - hist0.get(name, (0, 0.0))[0]
        total = hist1[name][1] - hist0.get(name, (0, 0.0))[1]
        return 1000.0 * total / count, count

    n = lambda count: f"{count} samples"
    for kind, q in (("write", 99), ("read", 99), ("snapshot", 90)):
        times = latency[kind]
        s.extras[f"{kind}_p50_ms"] = (1000 * percentile(times, 50), "ms", n(len(times)))
        s.extras[f"{kind}_p{q}_ms"] = (1000 * percentile(times, q), "ms", n(len(times)))
    for route in ("write", "file", "snapshot"):
        value, count = mean_ms(f"server.latency.device.{route}")
        s.extras[f"server.route.{route}_ms"] = (value, "ms", n(count))
    value, count = mean_ms("server.checkpoint_s")
    s.extras["server.checkpoint_ms"] = (value, "ms", n(count))
    s.extras["server.checkpoints"] = (count, "count", "timed windows")
    value, count = mean_ms("server.queue_wait_s")
    s.extras["server.queue_wait_ms"] = (value, "ms", n(count))
    s.extras["server.busy_fraction"] = (
        (busy1[0] - busy0[0]) / (busy1[1] - busy0[1]), "frac", "timed windows"
    )
    served = sum(
        hist1[name][1] - hist0.get(name, (0, 0.0))[1]
        for name in hist1 if name.startswith("server.latency.device.")
    )
    s.extras["client.overhead_ms"] = (
        1000.0 * (sum(client_s) - served) / len(client_s), "ms", n(len(client_s))
    )


def _mark_layers(server: Daemon, dump: pathlib.Path) -> None:
    """Ask the traced daemon to write its layer totals; wait for the file."""
    mark = dump.with_name(dump.name + ".mark.json")
    server.proc.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + 30.0
    while not mark.exists():
        if time.monotonic() > deadline:
            raise RuntimeError("traced daemon wrote no layer mark")
        time.sleep(0.01)


RUNNERS = {
    "fig4_dd": run_fig4_dd,
    "mixed_daily": run_mixed_daily,
    "fleet": run_fleet_workload,
    "daemon": run_daemon,
}


# -- metrics ------------------------------------------------------------------------


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def repeats(s: Samples) -> int:
    return min(len(v) for v in s.unit_s.values())


def end_to_end(s: Samples, import_s: float):
    ops_per_s, blocks_per_s = s.rates()
    units = f"{len(s.unit_s)} units x >={repeats(s)} repeats"
    return {
        "setup_s": (
            import_s + statistics.median(s.setup_s), "s",
            f"import + median of {len(s.setup_s)} set-ups",
        ),
        "blocks_per_s": (blocks_per_s, "blocks/s", units),
        "ops_per_s": (ops_per_s, "ops/s", units),
        "peak_rss_mib": (s.peak_rss_mib, "MiB", "1"),
    }


def op_latency(s: Samples):
    """p50 and p90 over the workload's ops of each op's median latency."""
    times = [statistics.median(v) for v in s.op_s.values()]
    ops = f"{len(times)} ops x >={repeats(s)} repeats (untraced)"
    return {
        "op_p50_ms": (1000 * percentile(times, 50), "ms", ops),
        "op_p90_ms": (1000 * percentile(times, 90), "ms", ops),
    }


def per_layer(base: Samples, traced: Samples):
    """Per-layer metrics of the traced half, plus server-only extras."""
    zero = {"self_s": 0.0, "calls": 0, "blocks": 0}
    total = traced.traced_s
    server = tuple(layer for layer in layers.SERVER_LAYERS if layer in traced.layers)
    stats = {
        layer: traced.layers.get(layer, zero)
        for layer in layers.STORAGE_LAYERS + server
    }
    residue = total - sum(st["self_s"] for st in stats.values())
    metrics, extras = {}, {}
    for layer, st in stats.items():
        into = metrics if layer in layers.STORAGE_LAYERS else extras
        into[f"{layer}.self_s"] = (st["self_s"], "s", f"of {total:.3f} s traced")
        into[f"{layer}.share"] = (st["self_s"] / total, "frac", "")
        into[f"{layer}.calls"] = (st["calls"], "count", "")
    metrics["workload.self_s"] = (residue, "s", f"of {total:.3f} s traced")
    metrics["workload.share"] = (residue / total, "frac", "")
    for layer in ("dm.crypt", "crypto", "blockdev"):
        metrics[f"{layer}.blocks"] = (stats[layer]["blocks"], "count", "")
    metrics["blockdev.blocks_per_call"] = (
        stats["blockdev"]["blocks"] / max(stats["blockdev"]["calls"], 1),
        "blocks/call", "",
    )
    untraced, traced_rate = base.rates()[1], traced.rates()[1]
    metrics["trace.overhead_frac"] = (
        1.0 - traced_rate / untraced, "frac",
        f"{traced_rate:.1f} traced vs {untraced:.1f} untraced blocks/s",
    )
    metrics.update(op_latency(base))
    return metrics, extras


# -- output -------------------------------------------------------------------------


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_digest(size: str, workload: str):
    pinned = json.loads((HERE / "expected.json").read_text())
    return pinned[size].get(workload)


def run_one(args) -> int:
    """One workload in this process; prints metrics and the JSON line."""
    started = now()
    import repro.bench.stacks  # noqa: F401 - set-up cost: the package import
    import repro.server.client  # noqa: F401
    import repro.workload  # noqa: F401

    import_s = (now() - started) * REF_NOMINAL_S / reference_loop()
    cfg = SIZES[args.size][args.workload]
    runner = RUNNERS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    (work / "base").mkdir()
    (work / "traced").mkdir()
    # library temp files (SQLite's, tempfile's) stay in the checkout too
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    try:
        if args.trace:
            # both halves time every op, so the overhead compares the
            # layer wrappers alone
            half = args.seconds / 2
            base = runner(cfg, args.seed, half, None, work / "base", True)
            traced = runner(cfg, args.seed, half, layers.LayerTracer(), work / "traced", True)
            runs = [base, traced]
            metrics, extras = per_layer(base, traced)
        else:
            runs = [runner(cfg, args.seed, args.seconds, None, work / "base", False)]
            metrics, extras = end_to_end(runs[0], import_s), {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for run in runs:
        extras.update(run.extras)
    factors = [f for run in runs for f in run.host.factors]
    extras["host.speed"] = (statistics.median(factors), "x", f"{len(factors)} units")

    problems = [p for run in runs for p in run.problems]
    digests = {run.digest() for run in runs}
    if len(digests) != 1:
        problems.append("traced and untraced runs disagree on simulated outputs")
    digest = sorted(digests)[0]
    pinned = expected_digest(args.size, args.workload) if args.seed == DEFAULT_SEED else None
    if pinned is not None and pinned != digest:
        problems.append(f"simulated-output digest {digest} != expected.json {pinned}")
    attempted = sum(run.attempted for run in runs)
    failed = min(attempted, sum(run.failed for run in runs))
    if problems and failed == 0:
        failed = attempted  # outputs that cannot be trusted count as failed

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench_spec()[kind]}
    emitted = {name: unit for name, (_v, unit, _n) in metrics.items()}
    if emitted != declared:
        problems.append(f"metrics {sorted(emitted.items())} != BENCHMARK.json {kind}")

    for name, (value, unit, samples) in list(metrics.items()) + list(extras.items()):
        print(f"{args.workload:12s} {name:28s} {value:16.6f} {unit:12s} {samples}")
    for problem in problems:
        print(f"{args.workload:12s} PROBLEM {problem}")
    print(f"{args.workload:12s} digest {digest}")
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _s) in metrics.items()},
    }
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "size": args.size, "digest": digest,
            "problems": problems, **line,
            "samples": {n: s for n, (_v, _u, s) in metrics.items()},
            "extras": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in extras.items()},
            "repeats": [
                {
                    "unit_s": {str(k): v for k, v in run.unit_s.items()},
                    "host_factors": run.host.factors,
                }
                for run in runs
            ],
        }
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload, each in a fresh child process."""
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size, "--out", args.out,
        ]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


# -- README baseline table ----------------------------------------------------------

README_BEGIN = "<!-- baseline:begin (rendered by run.py --readme from baseline.json) -->"
README_END = "<!-- baseline:end -->"


def render_baseline(baseline) -> str:
    seeds = baseline["seeds"]
    rows = [
        f"Two sets of one `--trace 0` run per seed, {baseline['run_seconds']} s "
        f"each, on {baseline['host']}: set A seeds {seeds['a'][0]}-{seeds['a'][-1]}, "
        f"set B seeds {seeds['b'][0]}-{seeds['b'][-1]}. Spread is the quartile "
        "spread (q3 - q1) over the median; \"B vs A\" is how much worse B's "
        "median is (negative = better).",
        "",
        "| workload | metric | unit | median A | spread A | median B | spread B | B vs A | bound |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for workload, metrics in baseline["workloads"].items():
        for name, m in metrics.items():
            rows.append(
                f"| {workload} | `{name}` | {m['unit']} | {m['a']['median']:.6g} "
                f"| {m['a']['spread']:.1%} | {m['b']['median']:.6g} "
                f"| {m['b']['spread']:.1%} | {m['worse']:+.1%} | {m['bound']:.0%} |"
            )
    rows += render_layers(baseline) + render_diagnostics(baseline)
    return "\n".join(rows)


def render_layers(baseline):
    """Per-layer medians of the traced runs: one column per workload."""
    traced = baseline["layers"]
    workloads = [w for w in WORKLOADS if w in traced]
    names = [
        f"{layer}.share"
        for layer in layers.STORAGE_LAYERS + layers.SERVER_LAYERS + ("workload",)
    ] + ["blockdev.blocks_per_call", "trace.overhead_frac", "op_p50_ms", "op_p90_ms"]
    runs = {traced[w][names[0]]["n"] for w in workloads}
    rows = [
        "",
        f"Per-layer medians of {'/'.join(map(str, sorted(runs)))} `--trace 1` runs per "
        f"workload (seeds {baseline['seeds']['traced'][0]}-{baseline['seeds']['traced'][-1]}). "
        "A share is the layer's self time over the traced busy time; a blank "
        "is a layer the workload does not have. Other rows give the quartile "
        "spread over the median in parentheses.",
        "",
        "| metric | " + " | ".join(workloads) + " |",
        "|---|" + "---|" * len(workloads),
    ]
    for name in names:
        cells = []
        for w in workloads:
            m = traced[w].get(name)
            if m is None:
                cells.append("")
            elif m["unit"] == "frac":
                cells.append(f"{m['median']:.1%}")
            else:
                cells.append(f"{m['median']:.4g} {m['unit']} ({m['spread']:.0%})")
        rows.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return rows


def render_diagnostics(baseline):
    """Medians of the untraced runs' diagnostics, both sets pooled."""
    rows = [
        "",
        "Diagnostics of the same `--trace 0` runs (medians, both sets pooled):",
        "",
        "| workload | diagnostic | median | unit |",
        "|---|---|---|---|",
    ]
    for workload, extras in baseline["diagnostics"].items():
        for name, m in extras.items():
            value = f"{m['median']:.1%}" if m["unit"] == "frac" else f"{m['median']:.4g}"
            rows.append(f"| {workload} | `{name}` | {value} | {m['unit']} |")
    return rows


def readme_text(readme: str, baseline) -> str:
    head, rest = readme.split(README_BEGIN, 1)
    _old, tail = rest.split(README_END, 1)
    return f"{head}{README_BEGIN}\n{render_baseline(baseline)}\n{README_END}{tail}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured wall seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny = the smoke test's sizes")
    parser.add_argument("--out", default=None, metavar="DIR")
    parser.add_argument("--readme", action="store_true",
                        help="re-render README.md's baseline table and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.readme:
        readme = HERE / "README.md"
        baseline = json.loads((HERE / "baseline.json").read_text())
        readme.write_text(readme_text(readme.read_text(), baseline))
        return 0
    if args.seconds is None:
        args.seconds = float(bench_spec()["run_seconds"])
    for name in ("REPRO_STORE", "REPRO_NO_NUMPY"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        if not args.out:
            parser.error("running every workload needs --out DIR")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
