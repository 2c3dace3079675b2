"""The PDE-as-a-service daemon: asyncio HTTP/1.1 JSON API over the fleet.

A deliberately small, stdlib-only HTTP server — no framework, no new
runtime dependencies — because the API surface is a dozen routes and the
interesting machinery (per-device serialization, SQLite checkpointing,
telemetry spools) lives in the sibling modules. Routes:

====== =============================== =======================================
method path                            action
====== =============================== =======================================
POST   ``/devices``                    create + initialize a device
GET    ``/devices``                    fleet summary rows
GET    ``/devices/{id}``               full device state
DELETE ``/devices/{id}``               finish telemetry, drop from fleet + db
POST   ``/devices/{id}/boot``          pre-boot auth + framework start
POST   ``/devices/{id}/switch``        screen-lock entry / fast switch
POST   ``/devices/{id}/write``         store a file in the current mode
GET    ``/devices/{id}/file``          read a file back (``?path=/...``)
POST   ``/devices/{id}/crash``         sudden power loss
POST   ``/devices/{id}/attach``        forensic re-attach over the medium
POST   ``/devices/{id}/snapshot``      adversary snapshot of the raw medium
GET    ``/devices/{id}/telemetry``     chunked ``telemetry.v1`` JSONL
GET    ``/healthz``                    liveness + saturation (503 when wedged)
GET    ``/metrics``                    metric export (``?format=prom`` = text)
====== =============================== =======================================

Error mapping is by exception family: malformed requests 400, unknown
routes/devices 404, lifecycle conflicts (double boot, duplicate name,
wrong mode) 409, rejected passwords 403, anything unexpected 500 — every
error body is ``{"error": ..., "detail": ...}``.

**Request tracing.** Every request is minted a deterministic
:class:`~repro.server.trace.TraceContext` (``X-Repro-Trace`` inbound is
honored, every response echoes ``trace_id:span_id``), threaded through
the executor and the device so the op runs under a per-request
:func:`repro.obs.observe` (``http.{route}`` → ``queue.wait`` +
``device.{op}`` → the stack's spans and ``checkpoint``), and finished
with one ``access.v1`` JSONL line in ``{stream_dir}/access.jsonl`` —
route template, status, wall and queue latency, byte counts, trace id.
Requests slower than ``slow_request_s`` auto-export their span tree as
a chrome-trace artifact next to the spool. ``tracing=False`` turns all
of it off (no ids, no spans, no access log).

**Metric determinism.** The daemon keeps two registries. ``metrics``
holds only request-sequence-derived values (counters, device-count
gauge): the same request multiset yields byte-identical output no matter
how requests interleave, with tracing on or off. ``wall_metrics`` holds
everything wall-clock — per-route latency histograms, queue-wait,
checkpoint duration, executor saturation gauges — under the ``"wall"``
key of the JSON payload and the ``repro_wall_`` prometheus namespace, so
consumers (and the determinism tests) can strip it structurally.
"""

from __future__ import annotations

import asyncio
import base64
import json
import pathlib
import threading
import time
import urllib.parse
from typing import Dict, Optional, Set, Tuple

from repro.crypto.rng import Rng
from repro.errors import (
    BadPasswordError,
    BadRequestError,
    DeviceExistsError,
    FrameworkStateError,
    ModeError,
    NoSuchDeviceError,
    NotInitializedError,
    ReproError,
)
from repro.obs.metrics import MetricRegistry
from repro.obs.promtext import info_lines, prom_lines
from repro.obs.stream import ACCESS_SCHEMA, SpoolWriter
from repro.server.device import DeviceConfig, ServerDevice, decode_write_request
from repro.server.executor import DEFAULT_WORKERS, FleetExecutor
from repro.server.store import FleetStore
from repro.server.stream import LAST_CHUNK, chunked_head, stream_spool
from repro.server.trace import TRACE_HEADER, TraceContext, mint_trace, route_template

#: Largest accepted request body (devices are small; 8 MiB is generous).
MAX_BODY_BYTES = 8 << 20

#: Default slow-request capture threshold (wall seconds).
DEFAULT_SLOW_REQUEST_S = 1.0

#: Default executor wedge deadline for the /healthz 503 (wall seconds).
DEFAULT_WEDGE_DEADLINE_S = 120.0

_SERVER_NAME = "repro-pde/1"


class _HttpProblem(Exception):
    """A protocol-level failure with a fixed status (pre-routing)."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


def _classify(exc: Exception) -> Tuple[int, str]:
    """Map an exception to ``(status, error-family)``."""
    if isinstance(exc, NoSuchDeviceError):
        return 404, "not_found"
    if isinstance(exc, BadPasswordError):
        return 403, "forbidden"
    if isinstance(
        exc,
        (DeviceExistsError, ModeError, NotInitializedError, FrameworkStateError),
    ):
        return 409, "conflict"
    if isinstance(exc, BadRequestError):
        return 400, "bad_request"
    if isinstance(exc, ReproError):
        return 400, "bad_request"
    return 500, "internal"


_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class PDEServer:
    """The daemon: a resident fleet behind an asyncio socket server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        db=":memory:",
        stream_dir=".",
        max_workers: int = DEFAULT_WORKERS,
        tracing: bool = True,
        trace_seed: int = 0,
        slow_request_s: Optional[float] = DEFAULT_SLOW_REQUEST_S,
        wedge_deadline_s: Optional[float] = DEFAULT_WEDGE_DEADLINE_S,
    ) -> None:
        self.host = host
        self.port = port  # updated to the bound port by start()
        self.stream_dir = stream_dir
        self.store = FleetStore(db)
        self.executor = FleetExecutor(max_workers)
        self.devices: Dict[int, ServerDevice] = {}
        #: request-sequence-derived metrics only; byte-identical across
        #: interleavings of the same request multiset (see module docs)
        self.metrics = MetricRegistry()
        #: everything wall-clock: latencies, queue wait, saturation
        self.wall_metrics = MetricRegistry()
        self._wall_lock = threading.Lock()  # wall_cb runs on worker threads
        self.tracing = tracing
        self.slow_request_s = slow_request_s
        self.wedge_deadline_s = wedge_deadline_s
        self._trace_rng = Rng(trace_seed).fork("server/trace")
        #: trace id of the most recently completed traced request;
        #: exposed in the prom text as ..._trace_info
        self.last_trace_id: Optional[str] = None
        self.access_log: Optional[SpoolWriter] = None
        self.started_wall = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # keep-alive connections parked between requests; close() shuts
        # them so shutdown never waits on a client's idle socket
        self._idle: Set[asyncio.StreamWriter] = set()
        self._closing = False
        self.resumed_devices = 0

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and resume any fleet persisted in the db."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self.tracing:
            self.access_log = SpoolWriter(
                pathlib.Path(self.stream_dir) / "access.jsonl", device=-1
            )
        for record in self.store.list_devices():
            device = await self.executor.run_unlocked(
                ServerDevice.resume,
                record, self.store, self.stream_dir,
                slow_request_s=self._capture_threshold(),
                wall_cb=self._observe_wall,
            )
            self.devices[device.id] = device
            self.resumed_devices += 1
        self.metrics.gauge("server.devices").set(len(self.devices))
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def _capture_threshold(self) -> Optional[float]:
        """Slow-capture needs a span recorder, so it requires tracing."""
        return self.slow_request_s if self.tracing else None

    async def run(self, on_ready=None) -> None:
        """start() + serve until :meth:`request_stop`, then close()."""
        if self._server is None:
            await self.start()
        if on_ready is not None:
            on_ready()
        assert self._stop is not None
        await self._stop.wait()
        await self.close()

    def request_stop(self) -> None:
        """Ask the daemon to shut down; safe to call from any thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)

    async def close(self) -> None:
        """Stop accepting, close device spools, release the db and pool.

        Idle keep-alive connections are closed at once (their clients see
        EOF); a connection with a request in flight answers it with
        ``Connection: close`` and then closes.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        for device in self.devices.values():
            # a daemon shutdown is not a device finish: leave spools
            # resumable, just close the file handles
            device.close()
        if self.access_log is not None:
            self.access_log.close()
            self.access_log = None
        self.executor.shutdown()
        self.store.close()

    # -- connection handling ---------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    parsed = await self._read_request(reader)
                except _HttpProblem as exc:
                    await self._send_json(
                        writer, exc.status,
                        {"error": "bad_request", "detail": exc.detail},
                        keep_alive=False,
                    )
                    return
                finally:
                    self._idle.discard(writer)
                if parsed is None:
                    return  # clean EOF between requests
                method, path, query, body, headers, keep_alive = parsed
                route = route_template(path)
                trace = self._mint_trace(headers, method, route)
                started = time.monotonic()
                if method == "GET" and self._telemetry_device(path) is not None:
                    status, sent = await self._stream_telemetry(
                        writer, path, query, trace
                    )
                    self._count_response(route, method, status)
                    self._log_access(
                        trace, route, method, status, started, len(body), sent
                    )
                    return  # streaming responses close the connection
                if (
                    route == "metrics"
                    and method == "GET"
                    and query.get("format") == "prom"
                ):
                    status, payload = 200, self.metrics_prom()
                    sent = await self._send_text(
                        writer, status, payload, keep_alive, trace
                    )
                else:
                    status, payload = await self._dispatch(
                        method, path, query, body, trace
                    )
                    sent = await self._send_json(
                        writer, status, payload, keep_alive, trace
                    )
                self._count_response(route, method, status)
                self._log_access(
                    trace, route, method, status, started, len(body), sent
                )
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; None on clean EOF before a request line."""
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpProblem(400, f"malformed request line: {parts!r}")
        method, target, version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpProblem(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpProblem(400, "malformed Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpProblem(413, f"body of {length} bytes refused")
        body = await reader.readexactly(length) if length else b""
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        url = urllib.parse.urlsplit(target)
        query = dict(urllib.parse.parse_qsl(url.query))
        return method.upper(), url.path, query, body, headers, keep_alive

    def _head(
        self,
        status: int,
        content_type: str,
        length: int,
        keep_alive: bool,
        trace: Optional[TraceContext],
    ) -> bytes:
        keep_alive = keep_alive and not self._closing  # last one if stopping
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Server: {_SERVER_NAME}",
            f"Content-Type: {content_type}",
            f"Content-Length: {length}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if trace is not None:
            lines.append(f"{TRACE_HEADER}: {trace.header()}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        keep_alive: bool,
        trace: Optional[TraceContext] = None,
    ) -> int:
        body = (
            json.dumps(payload, sort_keys=True) + "\n"
        ).encode("utf-8")
        writer.write(
            self._head(status, "application/json", len(body), keep_alive, trace)
            + body
        )
        await writer.drain()
        return len(body)

    async def _send_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        keep_alive: bool,
        trace: Optional[TraceContext] = None,
    ) -> int:
        body = text.encode("utf-8")
        writer.write(
            self._head(
                status, "text/plain; version=0.0.4", len(body), keep_alive,
                trace,
            )
            + body
        )
        await writer.drain()
        return len(body)

    # -- tracing + access log --------------------------------------------------

    def _mint_trace(
        self, headers: Dict[str, str], method: str, route: str
    ) -> Optional[TraceContext]:
        if not self.tracing:
            return None
        return mint_trace(
            self._trace_rng,
            headers.get(TRACE_HEADER.lower()),
            method=method,
            route=route,
        )

    def _count_response(self, route: str, method: str, status: int) -> None:
        family = f"{status // 100}xx"
        self.metrics.counter(f"server.responses.{family}").add(1)
        self.metrics.counter(
            f"server.requests.{route}.{method}.{family}"
        ).add(1)

    def _observe_wall(self, name: str, seconds: float) -> None:
        """Thread-safe wall-duration sink (devices report checkpoints)."""
        with self._wall_lock:
            self.wall_metrics.histogram(name).observe(seconds)

    def _log_access(
        self,
        trace: Optional[TraceContext],
        route: str,
        method: str,
        status: int,
        started_wall: float,
        body_bytes: int,
        response_bytes: int,
    ) -> None:
        wall_s = time.monotonic() - started_wall
        with self._wall_lock:
            self.wall_metrics.histogram(f"server.latency.{route}").observe(
                wall_s
            )
            if trace is not None and trace.device >= 0:
                self.wall_metrics.histogram("server.queue_wait_s").observe(
                    trace.queue_wait_s
                )
            if trace is not None and trace.slow_capture is not None:
                self.wall_metrics.counter("server.slow_requests").add(1)
        if trace is None or self.access_log is None:
            return
        self.last_trace_id = trace.trace_id
        self.access_log.emit(
            "request",
            trace.sim_t,
            schema=ACCESS_SCHEMA,
            device=trace.device,
            route=route,
            method=method,
            status=status,
            wall_ms=wall_s * 1000.0,
            queue_ms=trace.queue_wait_s * 1000.0,
            body_bytes=body_bytes,
            response_bytes=response_bytes,
            trace=trace.trace_id,
            span=trace.span_id,
        )

    # -- routing ---------------------------------------------------------------

    @staticmethod
    def _telemetry_device(path: str) -> Optional[str]:
        segments = [s for s in path.split("/") if s]
        if len(segments) == 3 and segments[0] == "devices" \
                and segments[2] == "telemetry":
            return segments[1]
        return None

    def _resolve(self, raw_id: str) -> ServerDevice:
        try:
            device_id = int(raw_id)
        except ValueError:
            raise NoSuchDeviceError(raw_id) from None
        device = self.devices.get(device_id)
        if device is None:
            raise NoSuchDeviceError(device_id)
        return device

    @staticmethod
    def _parse_body(body: bytes) -> object:
        if not body:
            return {}
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}")

    async def _dispatch(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: bytes,
        trace: Optional[TraceContext] = None,
    ) -> Tuple[int, object]:
        try:
            return await self._route(method, path, query, body, trace)
        except Exception as exc:  # noqa: BLE001 - every error becomes JSON
            status, family = _classify(exc)
            if status == 500:
                self.metrics.counter("server.errors.internal").add(1)
            return status, {"error": family, "detail": str(exc)}

    async def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: bytes,
        trace: Optional[TraceContext],
    ) -> Tuple[int, object]:
        segments = [s for s in path.split("/") if s]
        if segments == ["healthz"] and method == "GET":
            return self._healthz()
        if segments == ["metrics"] and method == "GET":
            fmt = query.get("format", "json")
            if fmt != "json":  # format=prom is handled pre-dispatch
                raise BadRequestError(
                    f"unknown metrics format {fmt!r} (json or prom)"
                )
            return 200, self._metrics_payload()
        if segments == ["devices"]:
            if method == "GET":
                return 200, {
                    "devices": [
                        self.devices[i].summary()
                        for i in sorted(self.devices)
                    ]
                }
            if method == "POST":
                return await self._create_device(body, trace)
            raise BadRequestError(f"{method} not supported on /devices")
        if len(segments) >= 2 and segments[0] == "devices":
            device = self._resolve(segments[1])
            action = segments[2] if len(segments) == 3 else None
            if len(segments) > 3:
                raise NoSuchDeviceError("/".join(segments))
            return await self._device_route(
                method, device, action, query, body, trace
            )
        raise NoSuchDeviceError(path)

    async def _run_op(
        self, trace: Optional[TraceContext], device: ServerDevice, op: str,
        fn, *args, **kwargs,
    ):
        """One traced, device-locked op: the executor stamps the queue
        wait, the device runs it under a per-request recorder."""
        if trace is not None:
            trace.device = device.id
        return await self.executor.run(
            device.id, device.run_op, trace, op, fn, *args, trace=trace,
            **kwargs,
        )

    async def _device_route(
        self,
        method: str,
        device: ServerDevice,
        action: Optional[str],
        query: Dict[str, str],
        body: bytes,
        trace: Optional[TraceContext],
    ) -> Tuple[int, object]:
        if action is None:
            if method == "GET":
                return 200, await self._run_op(
                    trace, device, "describe", device.describe
                )
            if method == "DELETE":
                await self._run_op(trace, device, "finish", device.finish)
                self.devices.pop(device.id, None)
                self.executor.forget(device.id)
                self.store.delete_device(device.id)
                self.metrics.gauge("server.devices").set(len(self.devices))
                return 200, {"deleted": device.id}
            raise BadRequestError(f"{method} not supported on a device")
        if method == "GET" and action == "file":
            req_path = query.get("path")
            if not req_path:
                raise BadRequestError("'path' query parameter is required")
            data = await self._run_op(
                trace, device, "read", device.read, req_path
            )
            return 200, {
                "path": req_path,
                "data_b64": base64.b64encode(data).decode("ascii"),
                "bytes": len(data),
            }
        if method != "POST":
            raise BadRequestError(
                f"{method} not supported on a device action"
            )
        payload = self._parse_body(body)
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        if action == "boot":
            password = payload.get("password")
            if not isinstance(password, str):
                raise BadRequestError("'password' must be a string")
            after_crash = payload.get("after_crash")
            if after_crash is not None and not isinstance(after_crash, bool):
                raise BadRequestError("'after_crash' must be a boolean")
            return 200, await self._run_op(
                trace, device, "boot", device.boot, password, after_crash
            )
        if action == "switch":
            password = payload.get("password")
            if not isinstance(password, str):
                raise BadRequestError("'password' must be a string")
            return 200, await self._run_op(
                trace, device, "switch", device.switch, password
            )
        if action == "write":
            file_path, data = decode_write_request(payload)
            return 200, await self._run_op(
                trace, device, "write", device.write, file_path, data
            )
        if action == "crash":
            return 200, await self._run_op(
                trace, device, "crash", device.crash
            )
        if action == "attach":
            return 200, await self._run_op(
                trace, device, "attach", device.attach
            )
        if action == "snapshot":
            label = payload.get("label", "")
            if not isinstance(label, str):
                raise BadRequestError("'label' must be a string")
            return 200, await self._run_op(
                trace, device, "snapshot", device.snapshot, label
            )
        raise NoSuchDeviceError(f"device action {action!r}")

    async def _create_device(
        self, body: bytes, trace: Optional[TraceContext]
    ) -> Tuple[int, object]:
        config = DeviceConfig.from_request(self._parse_body(body))
        device_id = self.store.create_device(config.name, config.to_spec())
        try:
            device = await self.executor.run_unlocked(
                ServerDevice.create,
                device_id, config, self.store, self.stream_dir,
                slow_request_s=self._capture_threshold(),
                wall_cb=self._observe_wall,
            )
        except Exception:
            self.store.delete_device(device_id)
            raise
        self.devices[device_id] = device
        self.metrics.gauge("server.devices").set(len(self.devices))
        return 201, await self._run_op(
            trace, device, "describe", device.describe
        )

    # -- leaf endpoints --------------------------------------------------------

    def _healthz(self) -> Tuple[int, Dict[str, object]]:
        """Liveness + saturation; 503 when the executor is wedged.

        "Wedged" means some op has been waiting or running longer than
        ``wedge_deadline_s`` — the accept loop still answers, but device
        locks are not draining, which a plain can-I-connect probe would
        never notice.
        """
        saturation = self.executor.saturation()
        wedged = self.executor.wedged(self.wedge_deadline_s)
        body = {
            "status": "wedged" if wedged else "ok",
            "devices": len(self.devices),
            "resumed_devices": self.resumed_devices,
            "uptime_s": time.monotonic() - self.started_wall,
            "ops_executed": self.executor.ops_executed,
            "ops_inflight": self.executor.ops_inflight,
            "executor": saturation,
            "wedge_deadline_s": self.wedge_deadline_s,
            "store": self.store.stats(),
        }
        return (503 if wedged else 200), body

    def _sample_saturation(self) -> None:
        """Refresh the executor saturation gauges (scrape-time sampling)."""
        saturation = self.executor.saturation()
        with self._wall_lock:
            gauge = self.wall_metrics.gauge
            gauge("server.executor.queue_depth").set(saturation["queue_depth"])
            gauge("server.executor.ops_inflight").set(
                saturation["ops_inflight"]
            )
            gauge("server.executor.busy_fraction").set(
                saturation["busy_fraction"]
            )
            gauge("server.executor.oldest_op_age_s").set(
                saturation["oldest_op_age_s"]
            )

    def _metrics_payload(self) -> Dict[str, object]:
        # "server" is deterministic by construction: counters and gauges
        # derived from the request multiset only, canonical key order from
        # the JSON serializer. Everything wall-clock lives under "wall" so
        # consumers can strip it structurally.
        self._sample_saturation()
        with self._wall_lock:
            wall = self.wall_metrics.as_dict()
        return {
            "schema_version": 1,
            "server": self.metrics.as_dict(),
            "wall": wall,
        }

    def metrics_prom(self) -> str:
        """The ``/metrics?format=prom`` body (text exposition 0.0.4).

        Deterministic metrics render under the ``repro_`` namespace,
        wall-clock ones under ``repro_wall_`` — stripping every
        ``repro_wall_``-prefixed family leaves a byte-deterministic
        document for the same request multiset.
        """
        self._sample_saturation()
        lines = prom_lines(self.metrics, namespace="repro")
        with self._wall_lock:
            lines += prom_lines(self.wall_metrics, namespace="repro_wall")
        if self.last_trace_id is not None:
            lines += info_lines(
                "repro_wall_server_trace_info",
                {"trace_id": self.last_trace_id},
                "trace id of the most recent traced request",
            )
        return "\n".join(lines) + "\n"

    # -- telemetry streaming ---------------------------------------------------

    async def _stream_telemetry(
        self,
        writer: asyncio.StreamWriter,
        path: str,
        query: Dict[str, str],
        trace: Optional[TraceContext],
    ) -> Tuple[int, int]:
        """Stream one device's spool; returns ``(status, body_bytes)``."""
        raw_id = self._telemetry_device(path)
        assert raw_id is not None
        try:
            device = self._resolve(raw_id)
        except NoSuchDeviceError as exc:
            sent = await self._send_json(
                writer, 404, {"error": "not_found", "detail": str(exc)},
                keep_alive=False, trace=trace,
            )
            return 404, sent
        if trace is not None:
            trace.device = device.id
            trace.sim_t = device.phone.clock.now
        follow = query.get("follow", "0") not in ("0", "", "false")
        try:
            max_s = float(query.get("max_s", "30"))
        except ValueError:
            sent = await self._send_json(
                writer, 400,
                {"error": "bad_request", "detail": "'max_s' must be a number"},
                keep_alive=False, trace=trace,
            )
            return 400, sent
        self.metrics.counter("server.telemetry.streams").add(1)
        writer.write(
            chunked_head(
                _SERVER_NAME,
                trace.header() if trace is not None else None,
            )
        )
        await writer.drain()
        sent = await stream_spool(
            writer,
            device.writer.path,
            follow=follow,
            max_s=max_s,
            finished=lambda: device.finished,
        )
        writer.write(LAST_CHUNK)
        await writer.drain()
        return 200, sent
