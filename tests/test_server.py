"""Tests for the PDE-as-a-service daemon (repro.server).

Every HTTP test here goes over a real socket: the daemon runs in a
background thread on an ephemeral port and the stdlib
:class:`~repro.server.client.ServerClient` drives it, exactly like the CI
smoke job and the docs example do. The store and device layers also get
direct unit tests where sockets would only add noise.
"""

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.blockdev.snapshot import capture
from repro.core.system import MobiCealSystem
from repro.errors import (
    BadRequestError,
    DeviceExistsError,
    NoSuchDeviceError,
    ServerError,
)
from repro.obs import stream as obs_stream
from repro.server import (
    DeviceConfig,
    FleetStore,
    PDEServer,
    ServerAPIError,
    ServerClient,
)
from repro.server.client import run_roundtrip


class RunningServer:
    """Context manager: a daemon in a thread, a client pointed at it."""

    def __init__(self, stream_dir, db=":memory:", max_workers=8, **kwargs):
        self.server = PDEServer(
            host="127.0.0.1",
            port=0,
            db=db,
            stream_dir=stream_dir,
            max_workers=max_workers,
            **kwargs,
        )
        self.thread = None

    def __enter__(self) -> ServerClient:
        import asyncio

        ready = threading.Event()
        failure = []

        def _run():
            try:
                asyncio.run(self.server.run(on_ready=ready.set))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failure.append(exc)
                ready.set()

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()
        assert ready.wait(15), "daemon did not come up"
        if failure:
            raise failure[0]
        self.client = ServerClient("127.0.0.1", self.server.port)
        return self.client

    def __exit__(self, *exc):
        self.server.request_stop()
        self.thread.join(15)
        self.client.close()
        assert not self.thread.is_alive(), "daemon did not shut down"


def _raw_request(client, method, path, body, content_type="application/json"):
    """Send bytes the high-level client refuses to (malformed payloads)."""
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request(
            method, path, body=body,
            headers={"Content-Type": content_type, "Connection": "close"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestLifecycle:
    def test_roundtrip_over_a_real_socket(self, tmp_path):
        with RunningServer(tmp_path) as client:
            device_id, events = run_roundtrip(client)

            # the canonical round-trip leaves the device booted public
            state = client.device(device_id)
            assert state["mode"] == "public"
            assert state["name"] == "smoke"
            assert state["counters"]["workload.ops.write"] == 2
            assert len(state["snapshots"]) == 2
            assert state["image_digest"]

            # file data round-trips through base64
            assert client.read_file(device_id, "/sdcard/a.txt") == b"public data"

            # every streamed event is schema-valid telemetry.v1
            assert events, "telemetry stream was empty"
            for event in events:
                assert obs_stream.validate_event(event) == []
            assert events[0]["event"] == "device_start"
            assert events[0]["spec"]["name"] == "smoke"

            # fast switch into the hidden volume, then hidden data stays
            # invisible from the public mode
            out = client.switch(device_id, "hid-pw")
            assert out["mode"] == "hidden"
            client.write(device_id, "/sdcard/h.txt", b"hidden data")
            assert client.read_file(device_id, "/sdcard/h.txt") == b"hidden data"

    def test_boot_after_crash_reports_recovery(self, tmp_path):
        with RunningServer(tmp_path) as client:
            device_id = int(client.create_device("c1", seed=3)["id"])
            client.boot(device_id, "decoy")
            client.write(device_id, "/sdcard/x", b"y" * 4096)
            out = client.crash(device_id)
            assert out["needs_recovery"] is True
            client.attach(device_id)
            # after_crash defaults to the device's persisted crash flag
            booted = client.boot(device_id, "decoy")
            assert booted["mode"] == "public"
            assert "recovery" in booted
            assert set(booted["recovery"]) == {
                "clean", "orphan_blocks_freed",
                "double_mappings_dropped", "recommitted",
            }

    def test_snapshot_diff_vs_previous(self, tmp_path):
        with RunningServer(tmp_path) as client:
            device_id = int(client.create_device("snapper")["id"])
            client.boot(device_id, "decoy")
            first = client.snapshot(device_id, label="before")
            assert "diff_vs_previous" not in first
            client.write(device_id, "/sdcard/z", b"q" * 8192)
            second = client.snapshot(device_id, label="after")
            assert second["diff_vs_previous"]["before"] == "before"
            assert second["diff_vs_previous"]["changed_blocks"] > 0
            assert second["digest"] != first["digest"]

    def test_delete_finishes_telemetry_and_frees_the_name(self, tmp_path):
        with RunningServer(tmp_path) as client:
            device_id = int(client.create_device("ephemeral")["id"])
            client.boot(device_id, "decoy")
            assert client.delete_device(device_id) == {"deleted": device_id}
            assert client.devices() == []
            with pytest.raises(ServerAPIError) as exc:
                client.device(device_id)
            assert exc.value.status == 404
            # the spool got a device_finish, so the strict reducer accepts it
            reduced = obs.reduce_spools(tmp_path)
            assert reduced.finished == 1
            assert reduced.crashed == 0
            # and the name is reusable (store row is gone)
            client.create_device("ephemeral")

    def test_healthz_and_metrics_shapes(self, tmp_path):
        with RunningServer(tmp_path) as client:
            client.create_device("m1")
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["devices"] == 1
            assert health["store"]["devices"] == 1
            assert health["uptime_s"] >= 0
            metrics = client.metrics()
            assert metrics["schema_version"] == 1
            counters = metrics["server"]["counters"]
            # requests count per route template, method and status family
            assert counters["server.requests.devices.POST.2xx"] == 1
            assert counters["server.requests.healthz.GET.2xx"] == 1
            # the per-method totals were deprecated and are gone
            assert "server.requests.POST" not in counters
            assert "server.requests.GET" not in counters
            assert metrics["server"]["gauges"]["server.devices"] == 1
            # wall-clock data (latency histograms, saturation gauges) is
            # structurally separated under its own key
            wall = metrics["wall"]
            # latency lands post-response, so the earlier healthz request
            # is visible here while this scrape's own is not yet
            assert "server.latency.healthz" in wall["histograms"]
            assert "server.executor.queue_depth" in wall["gauges"]
            # /metrics carries no wall clock — repeat calls differ only in
            # the request counters themselves
            again = client.metrics()["server"]["counters"]
            assert again["server.requests.metrics.GET.2xx"] == \
                counters.get("server.requests.metrics.GET.2xx", 0) + 1


class TestErrorPaths:
    def test_unknown_device_and_route_404(self, tmp_path):
        with RunningServer(tmp_path) as client:
            for call in (
                lambda: client.device(999),
                lambda: client.boot(999, "decoy"),
                lambda: client.request("GET", "/nonsense"),
                lambda: client.request("GET", "/devices/notanint"),
                lambda: client.request("POST", "/devices/999/frobnicate", {}),
            ):
                with pytest.raises(ServerAPIError) as exc:
                    call()
                assert exc.value.status == 404
                assert exc.value.payload["error"] == "not_found"

    def test_malformed_json_body_400(self, tmp_path):
        with RunningServer(tmp_path) as client:
            status, payload = _raw_request(
                client, "POST", "/devices", b"{not json"
            )
            assert status == 400
            assert payload["error"] == "bad_request"
            assert "not valid JSON" in payload["detail"]

    def test_create_validation_400_names_the_field(self, tmp_path):
        with RunningServer(tmp_path) as client:
            cases = [
                ({}, "'name'"),
                ({"name": "x", "bogus": 1}, "bogus"),
                ({"name": "x", "seed": "seven"}, "'seed'"),
                ({"name": "x", "userdata_blocks": 8}, "userdata_blocks"),
                ({"name": "x", "hidden_passwords": "pw"}, "hidden_passwords"),
                ({"name": "x", "hidden_passwords": ["a", "b", "c"]},
                 "num_volumes"),
            ]
            for body, needle in cases:
                with pytest.raises(ServerAPIError) as exc:
                    client.request("POST", "/devices", body)
                assert exc.value.status == 400
                assert needle in exc.value.payload["detail"]

    def test_lifecycle_conflicts_409(self, tmp_path):
        with RunningServer(tmp_path) as client:
            device_id = int(client.create_device("dup")["id"])
            with pytest.raises(ServerAPIError) as exc:
                client.create_device("dup")
            assert exc.value.status == 409
            client.boot(device_id, "decoy")
            with pytest.raises(ServerAPIError) as exc:
                client.boot(device_id, "decoy")  # double boot
            assert exc.value.status == 409
            with pytest.raises(ServerAPIError) as exc:
                client.attach(device_id)  # attach while booted
            assert exc.value.status == 409

    def test_write_before_boot_409(self, tmp_path):
        with RunningServer(tmp_path) as client:
            device_id = int(client.create_device("cold")["id"])
            with pytest.raises(ServerAPIError) as exc:
                client.write(device_id, "/sdcard/x", b"data")
            assert exc.value.status == 409

    def test_bad_passwords_403(self, tmp_path):
        with RunningServer(tmp_path) as client:
            device_id = int(
                client.create_device("locked", hidden_passwords=["hp"])["id"]
            )
            with pytest.raises(ServerAPIError) as exc:
                client.boot(device_id, "wrong")
            assert exc.value.status == 403
            client.boot(device_id, "decoy")
            with pytest.raises(ServerAPIError) as exc:
                client.switch(device_id, "wrong")
            assert exc.value.status == 403
            # in the hidden mode a non-lock password hits the one-way
            # fast-switch wall; the API shows plain "wrong password" too
            client.switch(device_id, "hp")
            with pytest.raises(ServerAPIError) as exc:
                client.switch(device_id, "also-wrong")
            assert exc.value.status == 403

    def test_oversized_body_refused(self, tmp_path):
        from repro.server.app import MAX_BODY_BYTES

        with RunningServer(tmp_path) as client:
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=30
            )
            try:
                conn.putrequest("POST", "/devices")
                conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
                conn.putheader("Connection", "close")
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 413
            finally:
                conn.close()


def _drive(client, device_id):
    """One device's deterministic op sequence; returns its digests."""
    client.boot(device_id, "decoy")
    client.write(device_id, "/sdcard/a", b"a" * 4096)
    first = client.snapshot(device_id, label="mid")
    client.write(device_id, "/sdcard/b", b"b" * 8192)
    client.crash(device_id)
    client.attach(device_id)
    client.boot(device_id, "decoy")
    client.write(device_id, "/sdcard/c", b"c" * 2048)
    last = client.snapshot(device_id, label="end")
    client.close()  # this thread's keep-alive connection
    return first["digest"], last["digest"]


class TestConcurrencyDeterminism:
    def test_eight_concurrent_clients_match_serial(self, tmp_path):
        """The headline determinism guarantee, over real sockets.

        Eight devices driven from eight threads at once must end
        byte-identical (per snapshot digest) to the same eight driven one
        after another: each device is a sealed simulation (own clock, own
        RNG) and the executor serializes per-device ops in request order.
        The threads drive either one client each or one shared client,
        whose keep-alive connections are per thread.
        """
        names = [f"d{i}" for i in range(8)]

        with RunningServer(tmp_path / "serial") as client:
            serial = {}
            for i, name in enumerate(names):
                device_id = int(client.create_device(name, seed=i)["id"])
                serial[name] = _drive(client, device_id)

        for shared in (False, True):
            with RunningServer(tmp_path / f"parallel-{shared}") as client:
                ids = {
                    name: int(client.create_device(name, seed=i)["id"])
                    for i, name in enumerate(names)
                }
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = {
                        name: pool.submit(
                            _drive,
                            client if shared
                            else ServerClient(client.host, client.port),
                            ids[name],
                        )
                        for name in names
                    }
                    parallel = {
                        name: f.result() for name, f in futures.items()
                    }
            assert parallel == serial, f"shared client: {shared}"


def _local_port(client):
    """The local port of the calling thread's keep-alive connection."""
    return client._local.conn.sock.getsockname()[1]


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _count_connects(client):
    """Wrap the client's connection factory; returns the call log."""
    calls = []
    connect = client._connect

    def counted():
        calls.append(1)
        return connect()

    client._connect = counted
    return calls


class TestKeepAlive:
    def test_requests_reuse_one_connection_per_thread(self, tmp_path):
        with RunningServer(tmp_path) as client:
            client.healthz()
            port = _local_port(client)
            device_id = int(client.create_device("k")["id"])
            client.boot(device_id, "decoy")
            client.metrics_prom()
            assert _local_port(client) == port

            def from_another_thread():
                client.healthz()
                try:
                    return _local_port(client)
                finally:
                    client.close()

            with ThreadPoolExecutor(max_workers=1) as pool:
                other = pool.submit(from_another_thread).result()
            assert other != port

    def test_server_closed_connection_is_replaced_once(self, tmp_path):
        """A keep-alive socket the server closed while idle fails before
        any response byte; the client resends on one fresh connection and
        the daemon applies the POST exactly once."""
        running = RunningServer(tmp_path)
        with running as client:
            server = running.server
            device_id = int(client.create_device("k")["id"])
            client.boot(device_id, "decoy")
            client.write(device_id, "/sdcard/a", b"a" * 4096)
            before = client.device(device_id)["counters"]["server.ops.write"]
            port = _local_port(client)
            # the daemon drops the client's parked connection under it
            _wait_until(lambda: len(server._idle) == 1)
            server._loop.call_soon_threadsafe(
                lambda: [writer.close() for writer in list(server._idle)]
            )
            _wait_until(lambda: not server._idle)
            connects = _count_connects(client)
            client.write(device_id, "/sdcard/b", b"b" * 4096)
            assert len(connects) == 1
            assert _local_port(client) != port
            state = client.device(device_id)
            assert state["counters"]["server.ops.write"] == before + 1
            assert client.read_file(device_id, "/sdcard/b") == b"b" * 4096

    def test_retries_at_most_once_and_never_on_a_fresh_connection(
        self, tmp_path
    ):
        with RunningServer(tmp_path) as client:
            client.healthz()
        # the daemon is gone: the stale socket fails, its one retry is
        # refused, and the refusal surfaces
        connects = _count_connects(client)
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert len(connects) == 1
        # a fresh connection that fails is not retried
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert len(connects) == 2

    def test_shutdown_closes_idle_keepalive_sockets(self, tmp_path):
        running = RunningServer(tmp_path)
        with running as client:
            server = running.server
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=10
            )
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.getheader("Connection") == "keep-alive"
            _wait_until(lambda: len(server._idle) == 1)
            # close() must have shut the idle connection itself by the
            # time it releases the db, not leave it to task cancellation
            still_open = []
            store_close = server.store.close

            def close_store():
                still_open.extend(
                    w for w in server._idle if not w.is_closing()
                )
                store_close()

            server.store.close = close_store
            started = time.monotonic()
        # __exit__ joined the daemon thread; an idle client never holds
        # shutdown up, and its socket sees EOF
        assert time.monotonic() - started < 5.0
        assert still_open == []
        assert conn.sock.recv(1) == b""
        conn.close()


class TestTracing:
    def test_trace_header_end_to_end(self, tmp_path):
        """The acceptance path: one trace id through the whole stack.

        A client-chosen ``X-Repro-Trace`` id must come back in every
        response header, stamp the telemetry snapshots it caused, land on
        every ``access.v1`` line, show up in the prom exposition, and —
        with ``slow_request_s=0.0`` turning every op into a "slow"
        request — produce chrome-trace artifacts whose span tree nests
        http → queue.wait + device op → checkpoint.
        """
        trace_id = "feedc0dedeadbeef"
        runner = RunningServer(tmp_path, slow_request_s=0.0)
        with runner as base:
            client = ServerClient(base.host, base.port, trace_id=trace_id)
            # run_roundtrip itself asserts header continuity per response
            device_id, events = run_roundtrip(client)

            echoed, _, span = (client.last_trace or "").partition(":")
            assert echoed == trace_id
            assert span and set(span) <= set("0123456789abcdef")

            # the op's telemetry snapshot is joinable to the access line
            traced = [
                e for e in events
                if e["event"] == "snapshot" and e.get("trace") == trace_id
            ]
            assert traced, "no telemetry snapshot carried the trace id"

            prom = client.metrics_prom()
            assert f'trace_id="{trace_id}"' in prom
            assert "repro_wall_server_slow_requests_total" in prom
            families = obs.parse_prom(prom)
            assert any(
                name.startswith("repro_server_requests_")
                for name in families
            )

        # access log (flushed on daemon close): schema-valid access.v1
        lines = (tmp_path / "access.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records
        for record in records:
            assert record["schema"] == "access.v1"
            assert obs_stream.validate_event(record) == []
            assert record["trace"] == trace_id
            assert record["wall_ms"] >= 0.0
            assert record["queue_ms"] >= 0.0
        routes = {r["route"] for r in records}
        assert {"devices", "device.boot", "device.snapshot",
                "device.telemetry", "metrics"} <= routes
        boot = next(r for r in records if r["route"] == "device.boot")
        assert boot["status"] == 200
        assert boot["method"] == "POST"
        assert boot["device"] == device_id

        # slow captures: one chrome trace per traced device op, nested
        captures = sorted(tmp_path.glob(f"slow-{trace_id}-*.chrome.json"))
        assert captures, "slow_request_s=0.0 exported no captures"
        from repro.obs.chrometrace import validate_trace_events

        for path in captures:
            doc = json.loads(path.read_text())
            assert validate_trace_events(doc["traceEvents"]) == []
        names_per_capture = [
            {e.get("name") for e in json.loads(p.read_text())["traceEvents"]}
            for p in captures
        ]
        snapshot_ops = [
            names for names in names_per_capture
            if "http.device.snapshot" in names
        ]
        assert snapshot_ops, "no capture for a snapshot op"
        for names in snapshot_ops:
            assert "queue.wait" in names
            assert "device.snapshot" in names
            assert "checkpoint" in names

    def test_invalid_inbound_trace_is_replaced_not_rejected(self, tmp_path):
        with RunningServer(tmp_path) as client:
            bad = ServerClient(client.host, client.port,
                               trace_id="NOT-hex-AT-ALL")
            assert bad.healthz()["status"] == "ok"
            minted, _, span = (bad.last_trace or "").partition(":")
            # a fresh deterministic mint, not the garbage we sent
            assert minted != "not-hex-at-all"
            assert set(minted) <= set("0123456789abcdef")
            assert len(minted) == 16 and len(span) == 8
            # the trace:parent form links to an upstream span
            linked = ServerClient(client.host, client.port,
                                  trace_id="abc123:beef")
            linked.healthz()
            assert (linked.last_trace or "").split(":")[0] == "abc123"

    def test_tracing_off_no_header_no_access_log(self, tmp_path):
        with RunningServer(tmp_path, tracing=False) as client:
            client.create_device("quiet")
            client.healthz()
            assert client.last_trace is None
        assert not (tmp_path / "access.jsonl").exists()
        assert not list(tmp_path.glob("slow-*.chrome.json"))

    def test_unknown_metrics_format_400(self, tmp_path):
        with RunningServer(tmp_path) as client:
            with pytest.raises(ServerAPIError) as exc:
                client.request("GET", "/metrics?format=xml")
            assert exc.value.status == 400
            assert "metrics format" in exc.value.payload["detail"]


class TestHealthSaturation:
    def test_healthz_reports_executor_saturation(self, tmp_path):
        with RunningServer(tmp_path) as client:
            client.create_device("sat")
            health = client.healthz()
            executor = health["executor"]
            assert executor["workers"] == 8
            assert executor["queue_depth"] == 0
            assert executor["ops_inflight"] == 0
            assert executor["ops_executed"] >= 1
            assert 0.0 <= executor["busy_fraction"] <= 1.0
            assert executor["per_device_queue"] == {}
            assert health["ops_inflight"] == 0
            assert health["wedge_deadline_s"] == 120.0

    def test_healthz_503_when_executor_wedged(self, tmp_path):
        runner = RunningServer(tmp_path, wedge_deadline_s=5.0)
        with runner as client:
            assert client.healthz()["status"] == "ok"
            # fake a stuck op: an inflight ticket far older than the
            # deadline — exactly what a deadlocked worker looks like
            runner.server.executor._inflight_since[10**9] = (
                time.monotonic() - 60.0
            )
            with pytest.raises(ServerAPIError) as exc:
                client.healthz()
            assert exc.value.status == 503
            assert exc.value.payload["status"] == "wedged"
            assert exc.value.payload["executor"]["oldest_op_age_s"] > 5.0
            # the probe recovers the moment the op drains
            del runner.server.executor._inflight_since[10**9]
            assert client.healthz()["status"] == "ok"


def _storm(client, device_id):
    """One thread's mixed-route storm: success, error and scrape paths."""
    client.boot(device_id, "decoy")
    client.write(device_id, "/sdcard/a", b"a" * 4096)
    client.read_file(device_id, "/sdcard/a")
    client.snapshot(device_id, label="s")
    with pytest.raises(ServerAPIError):
        client.boot(device_id, "decoy")  # 409 on the boot route
    with pytest.raises(ServerAPIError):
        client.device(99999)  # 404 on the device route
    with pytest.raises(ServerAPIError):
        client.request("GET", "/nonsense")  # 404, route "unmatched"
    client.healthz()
    client.metrics()
    client.metrics_prom()
    client.close()  # this thread's keep-alive connection


class TestMetricsDeterminism:
    """Deterministic metrics are a pure function of the request multiset.

    Hammer the daemon with four threads of mixed routes over real
    sockets, then scrape. The ``server`` half of the JSON payload and the
    non-``repro_wall_`` half of the prom text must be byte-identical
    across repeat runs and with tracing on or off — wall-clock data is
    confined to the ``wall`` key / ``repro_wall_`` namespace.
    """

    def _run_storm(self, stream_dir, tracing):
        with RunningServer(stream_dir, tracing=tracing) as client:
            ids = [
                int(client.create_device(f"d{i}", seed=i)["id"])
                for i in range(4)
            ]
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(
                        _storm,
                        ServerClient(
                            client.host, client.port,
                            trace_id=f"{i:016x}" if tracing else None,
                        ),
                        device_id,
                    )
                    for i, device_id in enumerate(ids)
                ]
                for future in futures:
                    future.result()
            payload = client.metrics()
            prom = client.metrics_prom()
        deterministic_json = json.dumps(
            {
                "schema_version": payload["schema_version"],
                "server": payload["server"],
            },
            sort_keys=True,
        )
        deterministic_prom = "\n".join(
            line for line in prom.splitlines()
            if "repro_wall_" not in line
        )
        return deterministic_json, deterministic_prom, payload, prom

    def test_scrapes_identical_across_runs_traced_or_not(self, tmp_path):
        runs = [
            self._run_storm(tmp_path / "a", tracing=True),
            self._run_storm(tmp_path / "b", tracing=True),
            self._run_storm(tmp_path / "c", tracing=False),
        ]
        base_json, base_prom = runs[0][0], runs[0][1]
        for run_json, run_prom, payload, prom in runs:
            assert run_json == base_json
            assert run_prom == base_prom
            # the wall half exists and the whole doc stays parseable
            assert payload["wall"]["histograms"]
            assert obs.parse_prom(prom)
        # the trace info line is wall-namespaced (ids are wall state):
        # present when traced, absent when not, filtered either way
        assert "repro_wall_server_trace_info" in runs[0][3]
        assert "repro_wall_server_trace_info" not in runs[2][3]


class TestRestartResume:
    def test_restart_resumes_byte_identical_fleet(self, tmp_path):
        db = tmp_path / "fleet.db"
        stream_dir = tmp_path / "stream"

        with RunningServer(stream_dir, db=db) as client:
            device_id = int(
                client.create_device("persist", seed=11,
                                     hidden_passwords=["hp"])["id"]
            )
            client.boot(device_id, "decoy")
            client.write(device_id, "/sdcard/keep.txt", b"survives restarts")
            client.snapshot(device_id, label="pre-restart")
            before = client.device(device_id)

        # plain process exit: nothing but the SQLite file carries over
        with RunningServer(stream_dir, db=db) as client:
            assert client.healthz()["resumed_devices"] == 1
            after = client.device(device_id)
            assert after["image_digest"] == before["image_digest"]
            assert after["spec"] == before["spec"]
            # pre-restart counters carry over; resume adds its own op tick
            for name, value in before["counters"].items():
                assert after["counters"][name] == value
            assert after["counters"]["workload.ops.resume"] == 1
            # a restart is a power event: the device comes back OFFLINE
            assert after["mode"] == "offline"
            # ... and boots over the restored medium with its data intact
            client.boot(device_id, "decoy")
            assert client.read_file(device_id, "/sdcard/keep.txt") == \
                b"survives restarts"
            client.switch(device_id, "hp")
            client.write(device_id, "/sdcard/h.txt", b"hidden after restart")

    def test_crash_flag_survives_restart(self, tmp_path):
        db = tmp_path / "fleet.db"
        with RunningServer(tmp_path / "s1", db=db) as client:
            device_id = int(client.create_device("crashy")["id"])
            client.boot(device_id, "decoy")
            client.write(device_id, "/sdcard/x", b"z" * 4096)
            client.crash(device_id)

        with RunningServer(tmp_path / "s2", db=db) as client:
            state = client.device(device_id)
            assert state["needs_recovery"] is True
            booted = client.boot(device_id, "decoy")
            assert "recovery" in booted
            assert client.device(device_id)["needs_recovery"] is False

    def test_restarted_spools_feed_the_monitor(self, tmp_path):
        db = tmp_path / "fleet.db"
        stream_dir = tmp_path / "stream"
        with RunningServer(stream_dir, db=db) as client:
            device_id = int(client.create_device("watched")["id"])
            client.boot(device_id, "decoy")

        with RunningServer(stream_dir, db=db) as client:
            client.boot(device_id, "decoy")  # restart = power event
            client.write(device_id, "/sdcard/x", b"m" * 4096)
            view = obs.scan_spools(stream_dir)
            text = obs.render_top(view)
            assert "running" in text
            for event in client.telemetry(device_id):
                assert obs_stream.validate_event(event) == []


class TestTelemetryStream:
    def test_follow_streams_until_finish(self, tmp_path):
        with RunningServer(tmp_path) as client:
            device_id = int(client.create_device("tail")["id"])
            client.boot(device_id, "decoy")
            events = []
            got_start = threading.Event()

            def _tail():
                for event in client.telemetry(device_id, follow=True,
                                              max_s=20.0):
                    events.append(event)
                    if event["event"] == "device_start":
                        got_start.set()

            tailer = threading.Thread(target=_tail, daemon=True)
            tailer.start()
            assert got_start.wait(10)
            client.write(device_id, "/sdcard/live", b"x" * 1024)
            client.delete_device(device_id)  # finish ends the stream
            tailer.join(20)
            assert not tailer.is_alive()
            kinds = [e["event"] for e in events]
            assert kinds[0] == "device_start"
            assert kinds[-1] == "device_finish"
            assert "snapshot" in kinds

    def test_telemetry_404_and_bad_query(self, tmp_path):
        with RunningServer(tmp_path) as client:
            with pytest.raises(ServerAPIError) as exc:
                list(client.telemetry(999))
            assert exc.value.status == 404
            device_id = int(client.create_device("q")["id"])
            with pytest.raises(ServerAPIError) as exc:
                list(
                    client.request(
                        "GET", f"/devices/{device_id}/telemetry?max_s=soon"
                    )
                )
            assert exc.value.status == 400


class TestFleetStore:
    def test_block_interning_dedupes_identical_blocks(self, tmp_path):
        store = FleetStore(tmp_path / "s.db")
        device_id = store.create_device("a", {"seed": 1})
        config = DeviceConfig(name="a", seed=1)
        phone = config.make_phone()
        image = capture(phone.userdata, label="img", taken_at=0.0)
        store.save_image(device_id, "userdata", image)
        blocks_once = store.stats()["blocks"]
        # a blank medium is one fill pattern: interning collapses it
        assert blocks_once < image.num_blocks
        store.save_image(device_id, "userdata", image)
        assert store.stats()["blocks"] == blocks_once
        loaded = store.load_image(device_id, "userdata")
        assert loaded.digest() == image.digest()
        store.close()

    def test_delete_prunes_orphan_blocks(self, tmp_path):
        store = FleetStore(tmp_path / "s.db")
        device_id = store.create_device("a", {})
        phone = DeviceConfig(name="a").make_phone()
        store.save_image(
            device_id, "userdata", capture(phone.userdata, label="i",
                                           taken_at=0.0)
        )
        assert store.stats()["blocks"] > 0
        checkpoints_so_far = store.stats()["checkpoints"]
        store.delete_device(device_id)
        stats = store.stats()
        assert {
            key: stats[key]
            for key in ("devices", "blocks", "images", "snapshots")
        } == {"devices": 0, "blocks": 0, "images": 0, "snapshots": 0}
        # checkpoint bookkeeping is operational, not row counts: deleting
        # rows never rewinds it
        assert stats["checkpoints"] == checkpoints_so_far
        store.close()

    def test_duplicate_name_and_missing_device(self, tmp_path):
        store = FleetStore(tmp_path / "s.db")
        store.create_device("a", {})
        with pytest.raises(DeviceExistsError):
            store.create_device("a", {})
        with pytest.raises(NoSuchDeviceError):
            store.update_state(999, {})
        with pytest.raises(NoSuchDeviceError):
            store.delete_device(999)
        assert store.get_device(999) is None
        store.close()

    def test_schema_version_gate(self, tmp_path):
        path = tmp_path / "s.db"
        store = FleetStore(path)
        store._conn.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
        store._conn.commit()
        store.close()
        with pytest.raises(ServerError, match="schema version 999"):
            FleetStore(path)


class TestDeviceConfig:
    def test_spec_roundtrip(self):
        config = DeviceConfig(
            name="x", seed=5, hidden_passwords=("a", "b"), num_volumes=5
        )
        assert DeviceConfig.from_spec(config.to_spec()) == config

    def test_from_request_rejects_bool_masquerading_as_int(self):
        with pytest.raises(BadRequestError, match="seed"):
            DeviceConfig.from_request({"name": "x", "seed": True})

    def test_resume_matches_attach_semantics(self, tmp_path):
        """Store → resume rebuilds the same medium attach() would see."""
        store = FleetStore(tmp_path / "s.db")
        config = DeviceConfig(name="direct", seed=9)
        phone = config.make_phone()
        phone.framework.power_on()
        system = MobiCealSystem(phone, config.mobiceal_config())
        system.initialize(
            config.decoy_password,
            config.hidden_passwords,
            config.screenlock_password,
        )
        device_id = store.create_device("direct", config.to_spec())
        from repro.server.device import ServerDevice

        live = ServerDevice(device_id, config, store, tmp_path)
        live.phone = phone
        live.system = system
        live._checkpoint()
        live.writer.close()

        record = store.get_device(device_id)
        resumed = ServerDevice.resume(record, store, tmp_path)
        assert resumed.image_digest == live.image_digest
        resumed.boot(config.decoy_password)
        resumed.writer.close()
        store.close()
