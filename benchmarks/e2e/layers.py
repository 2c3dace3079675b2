"""Per-layer wall-time accounting, installed from outside the program.

The end-to-end benchmark's untraced runs wrap nothing in the work they
time except a timer around each fleet worker's stack build (set-up).
Its traced runs wrap the public entry points of each storage layer at
class level (no file under ``src/`` changes) and book, per layer:

* ``self_s`` — wall time inside the layer minus the time its calls into
  other traced layers took, so the self times of all layers partition the
  traced wall time exactly;
* ``calls`` — entries into the layer from outside it (a layer calling
  itself, e.g. ``decrypt_extent`` -> ``encrypt_extent``, is one call);
* ``blocks`` — blocks carried by those calls, where the layer moves
  blocks.

Frames are kept per thread, so the daemon's worker threads each get
their own call stack; the totals are shared under one lock.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: the storage layers every workload exercises, outermost first
STORAGE_LAYERS = (
    "fs",
    "dm.crypt",
    "crypto",
    "dm.thin",
    "dm.thin.commit",
    "core.dummywrite",
    "blockdev",
)

#: layers only the daemon process has
SERVER_LAYERS = ("server", "server.store", "server.capture")

#: Ext4Filesystem VFS calls; open() returns the handle whose read/write
#: are wrapped separately
_FS_CALLS = (
    "open", "read_file", "write_file", "append_file", "flush", "exists",
    "stat", "statfs", "listdir", "mkdir", "makedirs", "rmdir", "unlink",
    "rename",
)

BlockCount = Optional[Callable[[tuple, dict], int]]


def _count(index: int, name: str) -> BlockCount:
    """Blocks = the positional argument *index* (a block count)."""

    def count(args: tuple, kwargs: dict) -> int:
        return args[index] if len(args) > index else kwargs[name]

    return count


def _data_blocks(index: int, name: str) -> BlockCount:
    """Blocks = len(data argument) / the receiver's block size."""

    def count(args: tuple, kwargs: dict) -> int:
        data = args[index] if len(args) > index else kwargs[name]
        return len(data) // args[0].block_size

    return count


def _cipher_units(args: tuple, kwargs: dict) -> int:
    data = args[2] if len(args) > 2 else kwargs["data"]
    unit = args[3] if len(args) > 3 else kwargs["unit_bytes"]
    return len(data) // unit


Target = Tuple[str, object, str, BlockCount]


def storage_targets() -> List[Target]:
    """(layer, owner, attribute, block counter) for the storage stack."""
    from repro.blockdev.emmc import EMMCDevice
    from repro.core.dummywrite import DummyWritePolicy
    from repro.crypto.stream import Blake2Ctr
    from repro.dm.crypt import CryptTarget
    from repro.dm.thin.pool import ThinPool
    from repro.fs import ext4

    targets: List[Target] = [
        ("fs", ext4.Ext4Filesystem, name, None) for name in _FS_CALLS
    ]
    targets += [
        ("fs", ext4._Ext4Handle, "read", None),
        ("fs", ext4._Ext4Handle, "write", None),
        ("dm.crypt", CryptTarget, "read_extent", _count(2, "count")),
        ("dm.crypt", CryptTarget, "write_extent", _data_blocks(2, "data")),
        ("crypto", Blake2Ctr, "encrypt_extent", _cipher_units),
        ("crypto", Blake2Ctr, "decrypt_extent", _cipher_units),
        ("dm.thin", ThinPool, "read_extent", None),
        ("dm.thin", ThinPool, "write_extent", None),
        ("dm.thin.commit", ThinPool, "commit", None),
        ("core.dummywrite", DummyWritePolicy, "on_provision", None),
        ("blockdev", EMMCDevice, "read_blocks", _count(2, "count")),
        ("blockdev", EMMCDevice, "write_blocks", _data_blocks(2, "data")),
    ]
    return targets


def server_targets() -> List[Target]:
    """The daemon's device ops, its SQLite checkpoint and image capture."""
    from repro.server import device
    from repro.server.store import FleetStore

    return [
        ("server", device.ServerDevice, "write", None),
        ("server", device.ServerDevice, "read", None),
        ("server", device.ServerDevice, "snapshot", None),
        ("server.store", FleetStore, "checkpoint", None),
        ("server.capture", device, "capture", None),
    ]


@contextlib.contextmanager
def patched(owner, name: str, wrapper):
    """Replace ``owner.name`` with *wrapper* for the duration."""
    missing = object()
    previous = vars(owner).get(name, missing)
    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        if previous is missing:
            delattr(owner, name)
        else:
            setattr(owner, name, previous)


class LayerTracer:
    """Self time, calls and blocks per layer, from class-level wrappers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stats: Dict[str, List[float]] = {}

    def wrap(self, layer: str, fn, blocks: BlockCount = None):
        stats = self._stats.setdefault(layer, [0.0, 0, 0])
        local, lock, clock = self._local, self._lock, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if stack and stack[-1][0] == layer:
                # re-entry from inside the same layer is part of that call
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                n = blocks(args, kwargs) if blocks is not None else 0
                with lock:
                    stats[0] += elapsed - frame[1]
                    stats[1] += 1
                    stats[2] += n

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: List[Target]):
        """Wrap every target while the block runs."""
        with contextlib.ExitStack() as stack:
            for layer, owner, name, blocks in targets:
                stack.enter_context(
                    patched(owner, name, self.wrap(layer, getattr(owner, name), blocks))
                )
            yield self

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                layer: {"self_s": s[0], "calls": s[1], "blocks": s[2]}
                for layer, s in self._stats.items()
            }


def delta(after: Dict[str, Dict[str, float]], before: Dict[str, Dict[str, float]]):
    """Per-layer difference of two snapshots."""
    zero = {"self_s": 0.0, "calls": 0, "blocks": 0}
    return {
        layer: {k: v - before.get(layer, zero)[k] for k, v in stats.items()}
        for layer, stats in after.items()
    }


def add(total: Dict[str, Dict[str, float]], part: Dict[str, Dict[str, float]]) -> None:
    """Accumulate snapshot *part* into *total* in place."""
    for layer, stats in part.items():
        acc = total.setdefault(layer, {"self_s": 0.0, "calls": 0, "blocks": 0})
        for k, v in stats.items():
            acc[k] += v
