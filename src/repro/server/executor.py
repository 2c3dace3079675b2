"""Per-device single-writer serialization over a bounded worker pool.

Device ops are synchronous, CPU-bound simulation code (crypto, block I/O,
filesystem walks) — they must not run on the event loop. The executor
offloads each op to a :class:`~concurrent.futures.ThreadPoolExecutor`
*through a per-device asyncio lock*, giving the two properties the API
promises:

* **per-device determinism** — at most one op runs per device, in the
  order requests arrived on that device's lock, so the device's sim
  clock/RNG trajectory is a pure function of its seed and op sequence
  (requests to one device concurrent with each other serialize; the
  result equals some serial order of those requests);
* **cross-device concurrency** — ops on *different* devices overlap up to
  the worker-pool width; a slow op on one device never blocks another.

The locks live in the event-loop world (acquired with ``await``, cheap,
fair-FIFO per asyncio semantics); only the op body crosses into a worker
thread. Everything a worker touches — the device and its registry, spool
and store handles — is either confined by the device lock or internally
locked (the store).

The executor also keeps the daemon's saturation bookkeeping — queue
depth, per-device waiting counts, worker busy time, and the wall-clock
age of the oldest op still waiting or running. All of it is mutated and
read on the event loop only (the coroutine parts of :meth:`run`), so no
lock is needed; :meth:`wedged` is what lets ``/healthz`` turn into a 503
when an op has been stuck past the deadline — a liveness probe that only
checks "the socket accepts" cannot see a deadlocked worker pool.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

DEFAULT_WORKERS = 8


class FleetExecutor:
    """Run device ops: one at a time per device, many devices at once."""

    def __init__(self, max_workers: int = DEFAULT_WORKERS) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="fleet-op"
        )
        self._locks: Dict[int, asyncio.Lock] = {}
        self.max_workers = max_workers
        self.ops_executed = 0
        self.ops_inflight = 0
        self.queue_depth = 0
        # saturation bookkeeping: all wall-clock, all event-loop-confined
        self._waiting: Dict[int, int] = {}  # device id -> waiters on its lock
        self._waiting_since: Dict[int, float] = {}  # ticket -> enqueue time
        self._inflight_since: Dict[int, float] = {}  # ticket -> start time
        self._next_ticket = 0
        self._busy_s = 0.0
        self._started_wall = time.monotonic()

    def lock_for(self, device_id: int) -> asyncio.Lock:
        lock = self._locks.get(device_id)
        if lock is None:
            lock = self._locks[device_id] = asyncio.Lock()
        return lock

    async def run(self, device_id: int, fn, *args, trace=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` in a worker, serialized per device.

        When a :class:`~repro.server.trace.TraceContext` is passed, the
        wall time spent between enqueue and op start (lock contention +
        worker dispatch) is stamped onto ``trace.queue_wait_s``.
        """
        loop = asyncio.get_running_loop()
        ticket = self._next_ticket
        self._next_ticket += 1
        enqueued = time.monotonic()
        self.queue_depth += 1
        self._waiting[device_id] = self._waiting.get(device_id, 0) + 1
        self._waiting_since[ticket] = enqueued
        try:
            async with self.lock_for(device_id):
                self._dequeue(ticket, device_id)
                started = time.monotonic()
                if trace is not None:
                    trace.queue_wait_s = started - enqueued
                self.ops_inflight += 1
                self._inflight_since[ticket] = started
                try:
                    return await loop.run_in_executor(
                        self._pool, functools.partial(fn, *args, **kwargs)
                    )
                finally:
                    self.ops_inflight -= 1
                    self.ops_executed += 1
                    self._inflight_since.pop(ticket, None)
                    self._busy_s += time.monotonic() - started
        finally:
            # cancelled while still waiting on the lock: undo the enqueue
            if ticket in self._waiting_since:
                self._dequeue(ticket, device_id)

    def _dequeue(self, ticket: int, device_id: int) -> None:
        del self._waiting_since[ticket]
        self.queue_depth -= 1
        remaining = self._waiting.get(device_id, 1) - 1
        if remaining:
            self._waiting[device_id] = remaining
        else:
            self._waiting.pop(device_id, None)

    async def run_unlocked(self, fn, *args, **kwargs):
        """Offload work not tied to any device (create, restart resume)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, functools.partial(fn, *args, **kwargs)
        )

    # -- saturation ---------------------------------------------------------

    def busy_fraction(self) -> float:
        """Fraction of pool capacity spent running ops since startup."""
        elapsed = time.monotonic() - self._started_wall
        if elapsed <= 0.0:
            return 0.0
        now = time.monotonic()
        busy = self._busy_s + sum(
            now - started for started in self._inflight_since.values()
        )
        return min(busy / (elapsed * self.max_workers), 1.0)

    def oldest_op_age_s(self) -> float:
        """Wall age of the oldest op still waiting or running (0 if idle)."""
        now = time.monotonic()
        stamps = list(self._inflight_since.values())
        stamps += list(self._waiting_since.values())
        return now - min(stamps) if stamps else 0.0

    def wedged(self, deadline_s: Optional[float]) -> bool:
        """True when some op has been waiting/running past *deadline_s*.

        A wedged executor means device locks are no longer draining —
        a deadlocked or livelocked pool — which a liveness probe must
        report even though the accept loop still answers.
        """
        if deadline_s is None:
            return False
        return self.oldest_op_age_s() > deadline_s

    def saturation(self) -> Dict[str, object]:
        """Point-in-time saturation view (``/healthz`` and gauge source)."""
        return {
            "workers": self.max_workers,
            "queue_depth": self.queue_depth,
            "ops_inflight": self.ops_inflight,
            "ops_executed": self.ops_executed,
            "busy_fraction": self.busy_fraction(),
            "oldest_op_age_s": self.oldest_op_age_s(),
            "per_device_queue": {
                str(device): depth
                for device, depth in sorted(self._waiting.items())
            },
        }

    def forget(self, device_id: int) -> None:
        """Drop a deleted device's lock."""
        self._locks.pop(device_id, None)
        self._waiting.pop(device_id, None)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)
