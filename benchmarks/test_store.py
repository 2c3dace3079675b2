"""Store costs — checkpoint wall-clock.

Two scenarios back the store's acceptance criteria:

* ``cow_checkpoint`` — checkpointing a 1 %-dirty device through
  :class:`CowOverlayStore.freeze` must beat the full capture-and-re-hash
  scan (a device on the flat reference store in ``tests/oracles``) by
  >= 10x: the overlay hashes only dirty blocks and reuses every clean
  block's bytes and cached hash.
* ``fleet_checkpoint`` — the SQLite half of the daemon's checkpoint:
  :meth:`FleetStore.checkpoint` of a 1 %-dirty capture, diffed against the
  last committed manifest, must beat rewriting the full manifest by
  >= 1.25x. It offers only changed LBAs' blocks to the block table and
  rewrites only the chunk rows holding them; at 1 % scattered dirt about
  half the 64-LBA chunk rows still change, and the new blocks' bytes cost
  both legs the same, which bounds the ratio.

The extent hotpath's bars run on the same store (every device ships on
it) and live in ``test_hotpath.py``.

Like ``BENCH_hotpath.json``, ``BENCH_store.json`` records wall-clock
measurements: machine-dependent, excluded from CI's
byte-drift check, and gated instead by ``repro bench compare``'s
one-sided loose bands plus the METRIC_FLOORS hard minimums.
"""

import tempfile
import time

from repro.blockdev import RAMBlockDevice, capture
from repro.crypto.rng import Rng
from repro.server import FleetStore
from tests.oracles.flat_store import FlatStore

BS = 4096

#: The checkpoint scenario's device and dirty ratio (1 % of blocks).
CHECKPOINT_BLOCKS = 65536
DIRTY_FRACTION = 0.01
CHECKPOINT_ROUNDS = 3

#: Acceptance: CoW checkpoint vs full re-intern at 1 % dirty.
COW_CHECKPOINT_MIN_SPEEDUP = 10.0

#: Acceptance: delta vs full-manifest FleetStore.checkpoint at 1 % dirty.
FLEET_CHECKPOINT_MIN_SPEEDUP = 1.25


def _cow_device() -> RAMBlockDevice:
    return RAMBlockDevice(CHECKPOINT_BLOCKS, block_size=BS)


# ---------------------------------------------------------------------------
# (a) CoW checkpoint vs full re-intern at 1 % dirty
# ---------------------------------------------------------------------------


def _measure_checkpoint():
    """Best-of-N capture cost: frozen CoW vs full scan + hash manifest.

    Both devices carry identical bytes at every step. The "full" leg does
    what every checkpoint did before the CoW store existed: scan the
    whole medium, intern, and hash each distinct block for the server's
    content-addressed block table (``Snapshot.block_hashes``).
    """
    dirty = int(CHECKPOINT_BLOCKS * DIRTY_FRACTION)
    cow = _cow_device()
    full = RAMBlockDevice(
        CHECKPOINT_BLOCKS, block_size=BS,
        store=FlatStore(CHECKPOINT_BLOCKS, BS),
    )
    capture(cow)  # freeze the factory base; later captures are O(dirty)

    rng = Rng(17)
    cow_s = full_s = float("inf")
    for _ in range(CHECKPOINT_ROUNDS):
        indices = rng.sample(range(CHECKPOINT_BLOCKS), dirty)
        blobs = [rng.random_bytes(BS) for _ in indices]
        for device in (cow, full):
            for index, blob in zip(indices, blobs):
                device.poke_extent(index, blob)

        t0 = time.perf_counter()
        snap_cow = capture(cow)
        cow_s = min(cow_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        snap_full = capture(full)
        snap_full.block_hashes()
        full_s = min(full_s, time.perf_counter() - t0)

        # fidelity: the O(dirty) checkpoint is byte- and hash-identical
        assert snap_cow.hashes is not None
        assert snap_cow.blocks == snap_full.blocks
        assert snap_cow.manifest_digest() == snap_full.manifest_digest()

    return {
        "device_blocks": CHECKPOINT_BLOCKS,
        "dirty_blocks": dirty,
        "cow_checkpoint_s": cow_s,
        "full_reintern_s": full_s,
        "speedup": full_s / cow_s,
    }


def _measure_fleet_checkpoint():
    """Best-of-N ``FleetStore.checkpoint`` cost: delta vs full manifest.

    Two fleet files see the same 1 %-dirty CoW captures. In one, the
    device's committed manifest is the previous capture, so the store
    diffs and writes only what changed (the daemon's steady state). In
    the other, an untimed checkpoint of an image that differs at every
    LBA comes first, so the timed checkpoint rewrites every chunk row in
    place and offers every distinct block to the block table — the full
    manifest write every checkpoint paid before the delta store. Both
    legs store the same new blocks and pay a real commit; captures stay
    outside the timed region.
    """
    dirty = int(CHECKPOINT_BLOCKS * DIRTY_FRACTION)
    device = _cow_device()
    other = _cow_device()
    other.poke_extent(0, b"\xff" * (BS * CHECKPOINT_BLOCKS))
    everywhere_different = capture(other)
    rng = Rng(29)
    delta_s = full_s = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        delta_db = FleetStore(f"{tmp}/delta.db")
        full_db = FleetStore(f"{tmp}/full.db")
        image = capture(device)
        legs = []
        for db in (delta_db, full_db):
            device_id = db.create_device("d", {})
            db.checkpoint(device_id, {"userdata": image})
            legs.append((db, device_id))
        (_, steady), (_, rewritten) = legs
        for _ in range(CHECKPOINT_ROUNDS):
            for index in rng.sample(range(CHECKPOINT_BLOCKS), dirty):
                device.poke_extent(index, rng.random_bytes(BS))
            image = capture(device)
            full_db.checkpoint(rewritten, {"userdata": everywhere_different})

            t0 = time.perf_counter()
            delta_db.checkpoint(steady, {"userdata": image})
            delta_s = min(delta_s, time.perf_counter() - t0)

            t0 = time.perf_counter()
            full_db.checkpoint(rewritten, {"userdata": image})
            full_s = min(full_s, time.perf_counter() - t0)

        # fidelity: both legs committed the same image
        for db, device_id in legs:
            loaded = db.load_image(device_id, "userdata")
            assert loaded.manifest_digest() == image.manifest_digest()
            db.close()
    return {
        "device_blocks": CHECKPOINT_BLOCKS,
        "dirty_blocks": dirty,
        "delta_checkpoint_s": delta_s,
        "full_manifest_s": full_s,
        "speedup": full_s / delta_s,
    }


def test_store_backends(benchmark, save_result, save_json):
    """CoW and fleet checkpoint speedups."""
    checkpoint = benchmark.pedantic(
        _measure_checkpoint, rounds=1, iterations=1
    )
    fleet = _measure_fleet_checkpoint()

    lines = [
        "Store: checkpoint cost",
        "",
        f"CoW checkpoint, {checkpoint['dirty_blocks']} dirty of "
        f"{checkpoint['device_blocks']} blocks (1%)",
        f"  frozen overlay: {checkpoint['cow_checkpoint_s'] * 1e3:8.2f} ms",
        f"  full re-intern: {checkpoint['full_reintern_s'] * 1e3:8.2f} ms",
        f"  speedup:        {checkpoint['speedup']:8.1f}x "
        f"(bound {COW_CHECKPOINT_MIN_SPEEDUP:.0f}x)",
        "",
        f"FleetStore.checkpoint, {fleet['dirty_blocks']} dirty of "
        f"{fleet['device_blocks']} blocks (1%)",
        f"  delta vs committed: {fleet['delta_checkpoint_s'] * 1e3:8.2f} ms",
        f"  full manifest:      {fleet['full_manifest_s'] * 1e3:8.2f} ms",
        f"  speedup:            {fleet['speedup']:8.1f}x "
        f"(bound {FLEET_CHECKPOINT_MIN_SPEEDUP:.2f}x)",
    ]
    save_result("store", "\n".join(lines))
    save_json("store", {
        "cow_checkpoint": checkpoint,
        "fleet_checkpoint": fleet,
    })
    benchmark.extra_info["cow_checkpoint_speedup"] = round(
        checkpoint["speedup"], 1
    )
    benchmark.extra_info["fleet_checkpoint_speedup"] = round(
        fleet["speedup"], 1
    )

    # acceptance bars (also enforced as METRIC_FLOORS by bench compare)
    assert checkpoint["speedup"] >= COW_CHECKPOINT_MIN_SPEEDUP, checkpoint
    assert fleet["speedup"] >= FLEET_CHECKPOINT_MIN_SPEEDUP, fleet
