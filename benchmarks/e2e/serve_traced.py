#!/usr/bin/env python3
"""Run ``repro serve`` with the benchmark's per-layer wrappers installed.

    python3 benchmarks/e2e/serve_traced.py DUMP [repro CLI args...]

Every storage layer plus the daemon's device ops, SQLite checkpoint and
image capture are wrapped (see ``layers.py``). On SIGUSR1 the running
totals are written to ``DUMP.mark.json``; when the daemon shuts down
(SIGTERM or SIGINT) they are written to ``DUMP.final.json``. The
difference of the two is the traced window's per-layer time.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import sys

import layers


def main(argv) -> int:
    dump = pathlib.Path(argv[0])
    tracer = layers.LayerTracer()

    def write(suffix: str) -> None:
        target = dump.with_name(f"{dump.name}.{suffix}.json")
        tmp = target.with_suffix(".tmp")
        tmp.write_text(json.dumps(tracer.snapshot()))
        os.replace(tmp, target)

    # the asyncio loop (main thread) never enters a wrapped layer, so the
    # handler cannot find the tracer's lock held by its own thread
    signal.signal(signal.SIGUSR1, lambda _sig, _frame: write("mark"))
    from repro import cli

    with tracer.installed(layers.storage_targets() + layers.server_targets()):
        status = cli.main(argv[1:])
    write("final")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
