"""A small stdlib client for the PDE daemon, used by tests, CI and docs.

One method per route, JSON in / JSON out, with ``http.client`` underneath
(which de-chunks the telemetry stream transparently, so
:meth:`ServerClient.telemetry` can just ``readline()`` events). Error
responses become :class:`ServerAPIError` carrying the status code and the
decoded ``{"error", "detail"}`` body.

Connections are kept alive, one per calling thread (``threading.local``),
so a client shared by many threads never shares a socket. A connection is
dropped when a response says it will close, and a request whose *reused*
connection fails before any response arrives (closed by the server while
idle) is resent once on a fresh one. Telemetry streams open their own
connection, which the server closes. ``last_trace`` is per-client state:
give each thread its own client when asserting trace continuity.

Tracing: set :attr:`ServerClient.trace_id` (lowercase hex) and every
request carries it as ``X-Repro-Trace``; after any call,
:attr:`ServerClient.last_trace` holds the daemon's response header
(``trace_id:span_id``), so callers can assert end-to-end continuity —
:func:`run_roundtrip` does exactly that when a trace id is set.
"""

from __future__ import annotations

import base64
import http.client
import json
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple


class ServerAPIError(Exception):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        detail = payload.get("detail", "") if isinstance(payload, dict) else ""
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


def _api_error(status: int, raw: bytes) -> ServerAPIError:
    """Decode an error body (``{"error", "detail"}`` JSON, or plain text)."""
    try:
        decoded = json.loads(raw) if raw else {}
    except json.JSONDecodeError:
        decoded = {"detail": raw.decode("utf-8", "replace")}
    return ServerAPIError(status, decoded)


class ServerClient:
    """Talks to one daemon at ``host:port``."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 30.0,
        trace_id: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: when set, every request carries ``X-Repro-Trace: {trace_id}``
        self.trace_id = trace_id
        #: the ``X-Repro-Trace`` header of the most recent response
        #: (``trace_id:span_id``), or None if the daemon sent none
        self.last_trace: Optional[str] = None
        self._local = threading.local()  # .conn: this thread's connection

    # -- plumbing --------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _headers(self) -> Dict[str, str]:
        return {} if self.trace_id is None else {"X-Repro-Trace": self.trace_id}

    def close(self) -> None:
        """Drop the calling thread's persistent connection, if any."""
        conn, self._local.conn = getattr(self._local, "conn", None), None
        if conn is not None:
            conn.close()

    def _exchange(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> bytes:
        """One request on this thread's persistent connection; returns the
        body of a < 400 response, raises :class:`ServerAPIError` otherwise."""
        body, headers = None, self._headers()
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        while True:
            conn = getattr(self._local, "conn", None)
            reused = conn is not None
            conn = self._local.conn = conn or self._connect()
            try:
                try:
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                except ConnectionError:
                    if not reused:
                        raise
                    # the server closed it while idle: resend, once
                    self.close()
                    continue
                raw = response.read()
            except BaseException:
                self.close()
                raise
            if response.will_close:
                self.close()
            self.last_trace = response.getheader("X-Repro-Trace")
            if response.status >= 400:
                raise _api_error(response.status, raw)
            return raw

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """One JSON round-trip; raises :class:`ServerAPIError` on >= 400."""
        raw = self._exchange(method, path, payload)
        return json.loads(raw) if raw else {}

    # -- fleet -----------------------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        return self.request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self.request("GET", "/metrics")

    def metrics_prom(self) -> str:
        """``GET /metrics?format=prom`` — the raw text exposition body."""
        return self._exchange("GET", "/metrics?format=prom").decode("utf-8")

    def devices(self) -> List[Dict[str, object]]:
        return self.request("GET", "/devices")["devices"]

    def create_device(self, name: str, **spec) -> Dict[str, object]:
        """``POST /devices`` — *spec* holds seed, userdata_blocks, etc."""
        return self.request("POST", "/devices", {"name": name, **spec})

    def device(self, device_id: int) -> Dict[str, object]:
        return self.request("GET", f"/devices/{device_id}")

    def delete_device(self, device_id: int) -> Dict[str, object]:
        return self.request("DELETE", f"/devices/{device_id}")

    # -- device lifecycle ------------------------------------------------------

    def boot(
        self,
        device_id: int,
        password: str,
        after_crash: Optional[bool] = None,
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {"password": password}
        if after_crash is not None:
            payload["after_crash"] = after_crash
        return self.request("POST", f"/devices/{device_id}/boot", payload)

    def switch(self, device_id: int, password: str) -> Dict[str, object]:
        return self.request(
            "POST", f"/devices/{device_id}/switch", {"password": password}
        )

    def write(self, device_id: int, path: str, data: bytes) -> Dict[str, object]:
        encoded = base64.b64encode(data).decode("ascii")
        return self.request(
            "POST", f"/devices/{device_id}/write",
            {"path": path, "data_b64": encoded},
        )

    def read_file(self, device_id: int, path: str) -> bytes:
        out = self.request("GET", f"/devices/{device_id}/file?path=" + path)
        return base64.b64decode(out["data_b64"])

    def crash(self, device_id: int) -> Dict[str, object]:
        return self.request("POST", f"/devices/{device_id}/crash", {})

    def attach(self, device_id: int) -> Dict[str, object]:
        return self.request("POST", f"/devices/{device_id}/attach", {})

    def snapshot(self, device_id: int, label: str = "") -> Dict[str, object]:
        return self.request(
            "POST", f"/devices/{device_id}/snapshot", {"label": label}
        )

    # -- telemetry -------------------------------------------------------------

    def telemetry(
        self,
        device_id: int,
        follow: bool = False,
        max_s: float = 30.0,
    ) -> Iterator[Dict[str, object]]:
        """Yield parsed ``telemetry.v1`` events from the chunked stream."""
        query = f"follow={int(follow)}&max_s={max_s}"
        conn = self._connect()
        try:
            conn.request("GET", f"/devices/{device_id}/telemetry?{query}",
                         headers=self._headers())
            response = conn.getresponse()
            self.last_trace = response.getheader("X-Repro-Trace")
            if response.status >= 400:
                raise _api_error(response.status, response.read())
            for line in response:  # de-chunked, one JSONL event per line
                if line.strip():
                    yield json.loads(line)
        finally:
            conn.close()

    # -- convenience -----------------------------------------------------------

    def wait_healthy(self, timeout: float = 10.0, poll_s: float = 0.05) -> None:
        """Block until ``/healthz`` answers (daemon finished starting)."""
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                self.healthz()
                return
            except (OSError, ServerAPIError) as exc:
                last = exc
                time.sleep(poll_s)
        raise TimeoutError(
            f"daemon at {self.host}:{self.port} not healthy "
            f"after {timeout}s: {last}"
        )


def run_roundtrip(client: ServerClient) -> Tuple[int, List[Dict[str, object]]]:
    """The canonical smoke round-trip, shared by CI and the docs example.

    create → boot → write → snapshot → crash → attach → boot(after_crash)
    → write → snapshot → telemetry. Returns ``(device_id, events)``; every
    event has already been schema-validated by the caller's standards —
    this helper only asserts the stream parses and the device answered.

    When ``client.trace_id`` is set, every response's ``X-Repro-Trace``
    header is asserted to carry that trace id back — end-to-end trace
    continuity over a real socket, including the chunked telemetry
    stream.
    """

    def check_trace() -> None:
        if client.trace_id is None:
            return
        assert client.last_trace is not None, (
            "daemon echoed no X-Repro-Trace header"
        )
        echoed = client.last_trace.split(":")[0]
        assert echoed == client.trace_id, (
            f"trace discontinuity: sent {client.trace_id}, daemon "
            f"echoed {echoed}"
        )

    created = client.create_device(
        "smoke", seed=7, hidden_passwords=["hid-pw"]
    )
    check_trace()
    device_id = int(created["id"])
    client.boot(device_id, "decoy")
    client.write(device_id, "/sdcard/a.txt", b"public data")
    client.snapshot(device_id, label="checkpoint-1")
    check_trace()
    client.crash(device_id)
    client.attach(device_id)
    client.boot(device_id, "decoy")
    client.write(device_id, "/sdcard/b.txt", b"more data")
    client.snapshot(device_id, label="checkpoint-2")
    events = list(client.telemetry(device_id))
    check_trace()
    return device_id, events
