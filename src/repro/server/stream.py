"""Chunked JSONL telemetry streaming for ``GET /devices/{id}/telemetry``.

The daemon's devices already write ``telemetry.v1`` spools through
:class:`~repro.obs.stream.SpoolWriter` (sorted-keys JSON, flushed per
line), so streaming a device's telemetry is a matter of shipping its
spool file over HTTP with two guarantees:

* **whole lines only** — reads are trimmed to the last complete newline,
  so a strict consumer (:func:`repro.obs.stream.reduce_spools`, which
  raises on any malformed line) can parse the stream as-is even while
  the device is mid-write;
* **chunked transfer-encoding** — the response length is unknown while
  following a live device; ``http.client`` and curl both de-chunk
  transparently.

``repro top`` needs none of this: it reads the server's ``--stream-dir``
from the filesystem, unchanged — the HTTP stream exists for clients that
only see the socket.
"""

from __future__ import annotations

import asyncio
import pathlib
from typing import Optional, Tuple

#: Polling cadence while following a live spool.
FOLLOW_POLL_S = 0.05

#: Default wall-clock budget for a follow stream that never sees the end.
FOLLOW_MAX_S = 30.0


def read_complete_lines(path, offset: int) -> Tuple[bytes, int]:
    """Read spool bytes past *offset*, trimmed to the last whole line.

    Returns ``(data, new_offset)``; the trailing partial line (a write in
    flight) is left for the next call, so every byte ever returned parses
    as complete JSONL.
    """
    p = pathlib.Path(path)
    if not p.exists():
        return b"", offset
    with p.open("rb") as fh:
        fh.seek(offset)
        data = fh.read()
    cut = data.rfind(b"\n")
    if cut < 0:
        return b"", offset
    return data[: cut + 1], offset + cut + 1


def encode_chunk(data: bytes) -> bytes:
    """One HTTP/1.1 chunked-transfer chunk (empty data encodes nothing)."""
    if not data:
        return b""
    return b"%X\r\n%s\r\n" % (len(data), data)


#: Terminates a chunked response body.
LAST_CHUNK = b"0\r\n\r\n"


def chunked_head(server_name: str, trace_header: Optional[str] = None) -> bytes:
    """The response head for a chunked JSONL stream.

    *trace_header* is the outbound ``X-Repro-Trace`` value, when the
    request is traced — a streamed response must carry the trace id in
    its head because the body is open-ended.
    """
    lines = [
        "HTTP/1.1 200 OK",
        f"Server: {server_name}",
        "Content-Type: application/x-ndjson",
        "Transfer-Encoding: chunked",
        "Connection: close",
    ]
    if trace_header is not None:
        lines.append(f"X-Repro-Trace: {trace_header}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def stream_spool(
    writer: asyncio.StreamWriter,
    path,
    follow: bool = False,
    max_s: float = FOLLOW_MAX_S,
    finished=None,
) -> int:
    """Stream a spool file to *writer* as chunked data; returns bytes sent.

    One-shot (``follow=False``) ships every complete line currently in
    the spool and terminates. Follow mode keeps polling the file until
    *finished* (a callable, e.g. "has the device emitted its last
    event?") returns True or *max_s* of wall time elapses — then drains
    one final time so the terminal event is never missed. The last chunk
    marker is NOT sent here; the caller owns the response framing.
    """
    offset = 0
    sent = 0
    data, offset = read_complete_lines(path, offset)
    if data:
        writer.write(encode_chunk(data))
        await writer.drain()
        sent += len(data)
    if not follow:
        return sent
    loop = asyncio.get_running_loop()
    deadline = loop.time() + max_s
    while loop.time() < deadline:
        done = bool(finished()) if finished is not None else False
        data, offset = read_complete_lines(path, offset)
        if data:
            writer.write(encode_chunk(data))
            await writer.drain()
            sent += len(data)
        elif done:
            break
        if done:
            continue  # drain once more after the finish flag flips
        await asyncio.sleep(FOLLOW_POLL_S)
    return sent
