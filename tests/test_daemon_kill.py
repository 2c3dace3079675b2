"""Crash consistency of the daemon's durable checkpoint, under real kills.

The daemon runs as a subprocess on a file database (WAL journal, FULL
sync) and a seeded write loop drives it over a socket. At three seeded
writes the process is SIGKILLed: once right after the write was
acknowledged, once inside the write's checkpoint with every row staged
but not committed, and once inside it right after the COMMIT, before the
response went out. Each time the daemon is restarted on the same file,
and the resumed userdata ``image_digest`` must equal the last
acknowledged generation or the in-flight one (the generation the killed
checkpoint was writing), and every acknowledged write must read back.

The two in-checkpoint kills need the daemon parked at an exact point, so
the subprocess runs ``python -m repro`` through :data:`LAUNCHER`, which
runs the ``repro`` package exactly as ``-m`` does after wrapping
``FleetStore.checkpoint`` with a parking hook. The test sends the
SIGKILL itself once the hook reports that it is parked.
"""

import json
import os
import pathlib
import random
import re
import select
import signal
import sqlite3
import subprocess
import sys
import threading
import time

from repro.server import ServerClient

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SEED = 5
WRITES = 8
KILLS = ("after-ack", "before-commit", "after-commit")

LAUNCHER = '''\
"""Run ``python -m repro`` with a hook that can park one checkpoint.

argv[1] is a JSON plan. ``{}`` leaves the daemon unchanged; with
``{"write": n, "phase": p, "marker": path}`` the checkpoint of the
device's n-th write parks, either with every row staged but before the
COMMIT (p = "before-commit") or right after it (p = "after-commit"),
and touches *marker* so the caller can kill the process there.
"""
import json
import pathlib
import runpy
import sys
import threading

from repro.server.store import FleetStore

plan = json.loads(sys.argv.pop(1))
checkpoint = FleetStore.checkpoint


def park():
    pathlib.Path(plan["marker"]).touch()
    threading.Event().wait()


class ParkOnCommit:
    """The store's sqlite3 connection, except that the COMMIT which would
    publish the device's state row parks instead."""

    def __init__(self, conn):
        self.conn = conn
        self.state_staged = False

    def __getattr__(self, name):
        return getattr(self.conn, name)

    def execute(self, sql, *args):
        if sql.startswith("UPDATE devices SET state"):
            self.state_staged = True
        return self.conn.execute(sql, *args)

    def commit(self):
        if self.state_staged:
            park()
        self.conn.commit()


def parked_checkpoint(self, device_id, images, state=None):
    writes = (state or {}).get("counters", {}).get("workload.ops.write")
    hit = bool(plan) and writes == plan["write"]
    if hit and plan["phase"] == "before-commit":
        self._conn = ParkOnCommit(self._conn)
    checkpoint(self, device_id, images, state)
    if hit:
        park()


FleetStore.checkpoint = parked_checkpoint
runpy.run_module("repro", run_name="__main__", alter_sys=True)
'''


class Daemon:
    """``python -m repro serve`` on *db*, behind the parking launcher."""

    def __init__(self, workdir: pathlib.Path, db: pathlib.Path, plan) -> None:
        launcher = workdir / "serve_parked.py"
        launcher.write_text(LAUNCHER)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = open(workdir / "serve.log", "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, str(launcher), json.dumps(plan),
                "serve", "--port", "0", "--db", str(db),
                "--stream-dir", str(workdir / "stream"),
            ],
            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=self.log,
        )
        self.client = ServerClient(port=self._read_port(), timeout=60.0)

    def _read_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and self.proc.poll() is None:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if ready:
                line = self.proc.stdout.readline().decode()
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    return int(match.group(1))
        self.kill()
        raise AssertionError("daemon did not start")

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def terminate(self) -> str:
        """SIGTERM; returns stdout after asserting a clean exit."""
        self.proc.send_signal(signal.SIGTERM)
        assert self.proc.wait(timeout=30) == 0
        return self.proc.stdout.read().decode()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.kill()
        self.client.close()
        self.proc.stdout.close()
        self.log.close()


def _committed_digest(db: pathlib.Path, device_id: int) -> str:
    """The userdata digest of the last committed state row, read beside
    the daemon through a read-only connection."""
    conn = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        (state,) = conn.execute(
            "SELECT state FROM devices WHERE id = ?", (device_id,)
        ).fetchone()
    finally:
        conn.close()
    return json.loads(state)["image_digest"]


def _seeded_plan(seed: int):
    """The write script and the ``(write index, kill kind)`` points."""
    rng = random.Random(seed)
    script = [
        (f"/sdcard/f{rng.randrange(4)}.bin",
         rng.randbytes(rng.choice((512, 4096, 9000))))
        for _ in range(WRITES)
    ]
    kinds = list(KILLS)
    rng.shuffle(kinds)
    return script, list(zip(sorted(rng.sample(range(1, WRITES), 3)), kinds))


def _check_resumed(client, device_id, expected, writes, acked) -> None:
    """A restarted daemon resumed the device at *expected*; boot it and
    read back every acknowledged write."""
    assert client.healthz()["resumed_devices"] == 1
    resumed = client.device(device_id)
    assert resumed["image_digest"] == expected
    assert resumed["counters"]["workload.ops.write"] == writes
    client.boot(device_id, "decoy")
    for path, data in acked.items():
        assert client.read_file(device_id, path) == data, path


def test_sigkill_resumes_the_acknowledged_or_inflight_generation(tmp_path):
    db = tmp_path / "fleet.db"
    wal = tmp_path / "fleet.db-wal"
    marker = tmp_path / "parked"
    script, kills = _seeded_plan(SEED)
    acked = {}  # path -> data the daemon acknowledged (or committed)
    writes = 0  # writes in the committed generation
    expected = device_id = None
    i = 0
    for kill_at, kind in kills:
        plan = {}
        if kind != "after-ack":
            plan = {"write": writes + kill_at - i + 1, "phase": kind,
                    "marker": str(marker)}
        daemon = Daemon(tmp_path, db, plan)
        try:
            client = daemon.client
            if device_id is None:
                created = client.create_device("victim", seed=SEED)
                device_id = int(created["id"])
                client.boot(device_id, "decoy")
            else:
                _check_resumed(client, device_id, expected, writes, acked)
            for path, data in script[i:kill_at]:
                client.write(device_id, path, data)
                acked[path] = data
                writes += 1
            acked_digest = client.device(device_id)["image_digest"]
            path, data = script[kill_at]
            i = kill_at + 1
            if kind == "after-ack":
                client.write(device_id, path, data)
                acked[path] = data
                writes += 1
                expected = client.device(device_id)["image_digest"]
                daemon.kill()
            else:
                committed = _kill_parked(
                    daemon, db, marker, device_id, path, data
                )
                if kind == "before-commit":
                    # the staged generation never became visible
                    assert committed == acked_digest
                else:
                    # committed but never answered: the in-flight one
                    assert committed != acked_digest
                    acked[path] = data
                    writes += 1
                expected = committed
            # a killed daemon leaves its WAL for the next open to recover
            assert wal.exists()
        finally:
            daemon.close()
    daemon = Daemon(tmp_path, db, {})
    try:
        _check_resumed(daemon.client, device_id, expected, writes, acked)
        # a clean stop with the client's keep-alive connection open is
        # prompt and folds the WAL back into the one database file
        assert "shut down cleanly" in daemon.terminate()
    finally:
        daemon.close()
    assert not wal.exists()
    assert not (tmp_path / "fleet.db-shm").exists()


def _kill_parked(daemon, db, marker, device_id, path, data) -> str:
    """Send a write from another thread, SIGKILL the daemon once that
    write's checkpoint has parked, and return the userdata digest of the
    last committed generation. The write must fail, never be answered."""
    failure = []

    def send():
        try:
            ServerClient(port=daemon.client.port, timeout=60.0).write(
                device_id, path, data
            )
        except OSError as exc:
            failure.append(exc)

    sender = threading.Thread(target=send, daemon=True)
    sender.start()
    deadline = time.monotonic() + 60.0
    while not marker.exists():
        assert daemon.proc.poll() is None, "daemon exited before parking"
        assert time.monotonic() < deadline, "checkpoint never parked"
        time.sleep(0.005)
    committed = _committed_digest(db, device_id)
    daemon.kill()
    sender.join(60.0)
    assert not sender.is_alive()
    assert failure, "the killed write was answered"
    marker.unlink()
    return committed
