"""The copy-on-write store and the checkpoints built on it.

Three layers under test: the store's extent contract itself (bit-identical
to the flat reference in ``tests/oracles/flat_store.py``), the snapshot
capture path on top (frozen CoW captures must be indistinguishable from
the peek-scan interner), and the fleet store's atomic multi-medium
checkpoint (a daemon killed between rows must never leave a torn image
behind).
"""

import sqlite3
import tracemalloc

import pytest

from repro.android.phone import Phone
from repro.android.profiles import NEXUS4
from repro.blockdev import (
    CowOverlayStore,
    EMMCDevice,
    FrozenImage,
    RAMBlockDevice,
)
from repro.blockdev.snapshot import Snapshot, capture, diff, restore
from repro.errors import NoSuchDeviceError, ServerError
from repro.server import DeviceConfig, FleetStore
from repro.server.device import ServerDevice
from repro.server.store import (
    CHUNK_BLOCKS,
    STORE_SCHEMA_VERSION,
    pack_manifest,
    unpack_manifest,
)
from tests.oracles.flat_store import FlatStore

BS = 512
N = 64

#: The stores under test: name -> factory(num_blocks, fill). ``ram`` is
#: the flat in-memory reference; ``cow`` is the store every device ships on.
STORES = {
    "ram": lambda n, fill=0: FlatStore(n, BS, fill=fill),
    "cow": lambda n, fill=0: CowOverlayStore(n, BS, fill=fill),
}


def _store(kind, fill=0):
    return STORES[kind](N, fill)


def _block(tag, bs=BS):
    return bytes([(tag * 41 + i) % 251 for i in range(bs)])


def _record(db, device_id):
    """*device_id*'s record as the daemon's resume path reads it."""
    (record,) = [r for r in db.list_devices() if r["id"] == device_id]
    return record


def _rows(db, table):
    """Every row of *table*, in key order (fixed table names only)."""
    order = {
        "blocks": "hash",
        "images": "device_id, medium",
        "image_chunks": "device_id, medium, chunk",
    }[table]
    return db._conn.execute(
        f"SELECT * FROM {table} ORDER BY {order}"
    ).fetchall()


# ---------------------------------------------------------------------------
# The store contract: the shipped store and its reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(STORES))
class TestStoreContract:
    def test_fresh_store_reads_fill(self, kind):
        store = _store(kind)
        assert store.read_extent(0, N) == b"\x00" * (N * BS)

    def test_write_read_roundtrip(self, kind):
        store = _store(kind)
        payload = _block(1) + _block(2) + _block(3)
        store.write_extent(5, payload)
        assert store.read_extent(5, 3) == payload
        assert store.read_extent(4, 1) == b"\x00" * BS
        assert store.read_extent(8, 1) == b"\x00" * BS

    def test_discard_restores_fill(self, kind):
        store = _store(kind, fill=0xAB)
        fill = bytes([0xAB]) * BS
        assert store.read_extent(9, 1) == fill
        store.write_extent(9, _block(7))
        store.discard_extent(9, 1)
        assert store.read_extent(9, 1) == fill

    def test_digest_tracks_content_not_backend(self, kind):
        store = _store(kind)
        baseline = _store("ram")
        for target in (store, baseline):
            target.write_extent(0, _block(4) * 2)
            target.write_extent(N - 1, _block(5))
        assert store.digest() == baseline.digest()

    def test_overwrite_in_place(self, kind):
        store = _store(kind)
        store.write_extent(3, _block(1) * 4)
        store.write_extent(4, _block(9) * 2)
        assert store.read_extent(3, 4) == (
            _block(1) + _block(9) * 2 + _block(1)
        )


def test_device_rejects_mismatched_store_geometry():
    store = CowOverlayStore(N, BS)
    with pytest.raises(ValueError, match="geometry"):
        RAMBlockDevice(N + 1, block_size=BS, store=store)
    with pytest.raises(ValueError, match="geometry"):
        RAMBlockDevice(N, block_size=BS * 2, store=store)


def test_device_rejects_store_with_other_fill():
    # a ready store's fill must agree with the device's, or never-written
    # blocks would silently read back as the store's pattern
    with pytest.raises(ValueError, match="fill"):
        RAMBlockDevice(4, fill=0xAB, store=CowOverlayStore(4, 4096))
    device = RAMBlockDevice(
        4, fill=0xAB, store=CowOverlayStore(4, 4096, fill=0xAB)
    )
    assert device.read_block(0) == bytes([0xAB]) * 4096


def test_device_accepts_prebuilt_store():
    store = CowOverlayStore(N, BS)
    device = RAMBlockDevice(N, block_size=BS, store=store)
    assert device.store is store
    device.write_block(0, _block(2))
    assert store.read_extent(0, 1) == _block(2)


def test_device_close_keeps_peek_working():
    # the historical contract: peeking a closed device still works (the
    # adversary images a powered-off phone), so closing the device must
    # not tear down the store
    for kind in STORES:
        device = EMMCDevice(N, block_size=BS, store=_store(kind))
        device.write_block(3, _block(6))
        device.close()
        assert device.peek_extent(3, 1) == _block(6)


# ---------------------------------------------------------------------------
# CoW overlay semantics
# ---------------------------------------------------------------------------


class TestCowOverlay:
    def test_writes_dirty_and_freeze_cleans(self):
        store = CowOverlayStore(N, BS)
        store.write_extent(1, _block(1) * 3)
        assert store.dirty_blocks == 3
        image = store.freeze()
        assert store.dirty_blocks == 0
        assert image.blocks[1] == _block(1)
        assert image.num_blocks == N

    def test_rewriting_base_content_cleans_the_block(self):
        store = CowOverlayStore(N, BS)
        store.write_extent(7, _block(3))
        store.freeze()
        store.write_extent(7, _block(4))
        assert store.dirty_blocks == 1
        store.write_extent(7, _block(3))  # back to frozen content
        assert store.dirty_blocks == 0

    def test_freeze_with_clean_overlay_returns_same_base(self):
        store = CowOverlayStore(N, BS)
        first = store.freeze()
        assert store.freeze() is first

    def test_freeze_shares_clean_blocks_and_hashes(self):
        store = CowOverlayStore(N, BS)
        store.write_extent(0, _block(1) * 2)
        before = store.freeze()
        store.write_extent(1, _block(9))
        after = store.freeze()
        assert after is not before
        # only block 1 was re-hashed; everything else is reused verbatim
        for i in range(N):
            if i == 1:
                assert after.blocks[i] == _block(9)
                assert after.hashes[i] != before.hashes[i]
            else:
                assert after.blocks[i] is before.blocks[i]
                assert after.hashes[i] == before.hashes[i]

    def test_freeze_interns_identical_dirty_blocks(self):
        store = CowOverlayStore(N, BS)
        store.write_extent(2, _block(5))
        store.write_extent(40, _block(5))
        image = store.freeze()
        assert image.blocks[2] is image.blocks[40]

    def test_fresh_store_holds_only_written_blocks(self):
        # no base until the first freeze: a phone-scale store costs its
        # writes, and fill writes (discards, zeroing) on it cost nothing
        store = CowOverlayStore(10_000_000, BS)
        store.write_extent(9_999_998, _block(1) + _block(2))
        store.write_extent(5, b"\x00" * BS * 3)
        store.discard_extent(9_999_999, 1)
        assert store.dirty_blocks == 1
        assert store.read_extent(9_999_998, 2) == _block(1) + b"\x00" * BS

    def test_base_geometry_validated(self):
        base = CowOverlayStore(N, BS).freeze()
        with pytest.raises(ValueError, match="geometry"):
            CowOverlayStore(N + 1, BS, base=base)
        resumed = CowOverlayStore(N, BS, base=base)
        assert resumed.read_extent(0, N) == b"\x00" * (N * BS)


# ---------------------------------------------------------------------------
# Fresh media cost what they hold
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "userdata_blocks, budget_mib",
    [(16384, 8), (NEXUS4.userdata_blocks, 4)],
    ids=["16384", "nexus4"],
)
def test_phone_construction_allocates_only_what_it_holds(
    userdata_blocks, budget_mib
):
    """A factory-fresh phone allocates no per-block state: no dense
    buffer (64 MiB for 16384 blocks) and no materialized base image
    (two 3.4M-entry tuples for a Nexus 4 userdata)."""
    tracemalloc.start()
    try:
        phone = Phone(seed=0, userdata_blocks=userdata_blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert phone.userdata.num_blocks == userdata_blocks
    assert peak < budget_mib * 2**20, peak


# ---------------------------------------------------------------------------
# Snapshot capture: frozen CoW path vs the peek-scan interner
# ---------------------------------------------------------------------------


def _written_device(kind):
    device = RAMBlockDevice(N, block_size=BS, store=_store(kind))
    for i in (0, 1, 9, 30, 31, N - 1):
        device.write_block(i, _block(i))
    device.write_block(9, _block(30))  # duplicate content, different block
    return device


class TestCaptureEquivalence:
    def test_frozen_capture_matches_peek_capture_bytes(self):
        """Satellite check: the freeze_image() fast path must produce an
        image byte-identical to what the pre-change interner captured."""
        legacy = capture(_written_device("ram"), label="l", taken_at=1.0)
        frozen = capture(_written_device("cow"), label="l", taken_at=1.0)
        # the frozen capture arrives with hashes prefilled; the legacy one
        # computes the same values lazily, on first use
        assert frozen.hashes is not None
        assert legacy.hashes is None
        assert frozen.blocks == legacy.blocks
        assert frozen.manifest_digest() == legacy.manifest_digest()
        assert frozen.block_hashes() == legacy.block_hashes()

    def test_capture_interns_duplicate_blocks_on_every_path(self):
        for kind in STORES:
            snap = capture(_written_device(kind))
            assert snap.blocks[9] == snap.blocks[30]
            fills = {id(b) for i, b in enumerate(snap.blocks)
                     if snap.blocks[i] == b"\x00" * BS}
            assert len(fills) == 1, kind

    def test_restore_roundtrip_across_backends(self):
        snap = capture(_written_device("ram"))
        for kind in STORES:
            device = RAMBlockDevice(N, block_size=BS, store=_store(kind))
            restore(device, snap)
            assert capture(device).blocks == snap.blocks

    def test_fleet_store_interns_identically_on_both_paths(self, tmp_path):
        """Hash-path interning (frozen captures) and legacy interning must
        write byte-identical rows: same manifest chunks, same block table."""
        legacy_db = FleetStore(tmp_path / "legacy.db")
        frozen_db = FleetStore(tmp_path / "frozen.db")
        legacy = capture(_written_device("ram"), label="i", taken_at=0.0)
        frozen = capture(_written_device("cow"), label="i", taken_at=0.0)
        for db, snap in ((legacy_db, legacy), (frozen_db, frozen)):
            device_id = db.create_device("d", {})
            db.checkpoint(device_id, {"userdata": snap})
        assert legacy_db.stats()["blocks"] == frozen_db.stats()["blocks"]
        assert _rows(legacy_db, "blocks") == _rows(frozen_db, "blocks")
        chunks = _rows(legacy_db, "image_chunks")
        assert chunks == _rows(frozen_db, "image_chunks")
        assert len(chunks) == 1  # N = 64 LBAs: exactly one chunk row
        assert unpack_manifest(chunks[0][3]) == legacy.block_hashes()
        loaded_l = legacy_db.load_image(1, "userdata")
        loaded_f = frozen_db.load_image(1, "userdata")
        assert loaded_l.blocks == loaded_f.blocks == legacy.blocks
        legacy_db.close()
        frozen_db.close()


# ---------------------------------------------------------------------------
# Atomic multi-medium checkpoints (the kill-between-rows regression)
# ---------------------------------------------------------------------------


def _snap(tag, taken_at=0.0):
    blocks = tuple(_block(tag + i) for i in range(4))
    return Snapshot(label=f"s{tag}", taken_at=taken_at, block_size=BS,
                    blocks=blocks)


class TestAtomicCheckpoint:
    def test_checkpoint_writes_all_media_and_state(self, tmp_path):
        db = FleetStore(tmp_path / "f.db")
        device_id = db.create_device("d", {})
        db.checkpoint(
            device_id,
            {"userdata": _snap(1), "cache": _snap(2), "devlog": _snap(3)},
            {"mode": "public"},
        )
        for medium, tag in (("userdata", 1), ("cache", 2), ("devlog", 3)):
            assert db.load_image(device_id, medium).blocks == _snap(tag).blocks
        assert _record(db, device_id)["state"] == {"mode": "public"}
        db.close()

    def test_failure_mid_images_rolls_back_every_row(self, tmp_path):
        """The torn-checkpoint regression: a failure after some media rows
        are written must leave the PREVIOUS checkpoint fully intact —
        including after a reopen, i.e. across a simulated daemon kill."""
        path = tmp_path / "f.db"
        db = FleetStore(path)
        device_id = db.create_device("d", {})
        db.checkpoint(
            device_id,
            {"userdata": _snap(1), "cache": _snap(2), "devlog": _snap(3)},
            {"gen": 1},
        )
        # checkpoint N+1 dies on its second medium: the poison snapshot's
        # second block is unbindable, so SQLite raises mid-transaction
        poison = Snapshot(
            label="p", taken_at=1.0, block_size=BS,
            blocks=(_block(9), object()),
            hashes=("h-ok", "h-poison"),
        )
        with pytest.raises((sqlite3.InterfaceError, sqlite3.ProgrammingError)):
            db.checkpoint(
                device_id,
                {"userdata": _snap(7, 1.0), "cache": poison},
                {"gen": 2},
            )
        # nothing of checkpoint N+1 is visible...
        assert db.load_image(device_id, "userdata").blocks == _snap(1).blocks
        assert _record(db, device_id)["state"] == {"gen": 1}
        db.close()
        # ...and the on-disk file agrees after a restart
        reopened = FleetStore(path)
        assert reopened.load_image(device_id, "userdata").blocks == \
            _snap(1).blocks
        assert reopened.load_image(device_id, "devlog").blocks == \
            _snap(3).blocks
        assert _record(reopened, device_id)["state"] == {"gen": 1}
        reopened.close()

    def test_failure_on_state_row_rolls_back_images(self, tmp_path):
        db = FleetStore(tmp_path / "f.db")
        device_id = db.create_device("d", {})
        db.checkpoint(device_id, {"userdata": _snap(1)}, {"gen": 1})
        with pytest.raises(NoSuchDeviceError):
            db.checkpoint(999, {"userdata": _snap(5)}, {"gen": 2})
        assert db.load_image(device_id, "userdata").blocks == _snap(1).blocks
        assert db.load_image(999, "userdata") is None
        db.close()


# ---------------------------------------------------------------------------
# Delta checkpoints: O(changed LBAs) against the last committed manifest
# ---------------------------------------------------------------------------

#: Four manifest chunks, so a one-block write leaves three rows alone.
DELTA_BLOCKS = 4 * CHUNK_BLOCKS


def _cow_device():
    device = RAMBlockDevice(
        DELTA_BLOCKS, block_size=BS, store=CowOverlayStore(DELTA_BLOCKS, BS)
    )
    for i in range(0, DELTA_BLOCKS, 7):
        device.poke_extent(i, _block(i))
    return device


def _chunk_map(db):
    return {row[2]: row[3] for row in _rows(db, "image_chunks")}


class TestDeltaCheckpoint:
    def test_manifest_codec_roundtrip(self):
        hashes = capture(_cow_device()).block_hashes()
        packed = pack_manifest(hashes)
        assert len(packed) == 32 * DELTA_BLOCKS
        assert unpack_manifest(packed) == hashes

    @pytest.mark.parametrize("lbas", [(130,), (5, 200), (64, 65, 127)])
    def test_checkpoint_rewrites_only_chunks_with_changed_lbas(
        self, tmp_path, lbas
    ):
        db = FleetStore(tmp_path / "f.db")
        device_id = db.create_device("d", {})
        device = _cow_device()
        db.checkpoint(device_id, {"userdata": capture(device)})
        before = _chunk_map(db)
        assert sorted(before) == list(range(DELTA_BLOCKS // CHUNK_BLOCKS))
        for n, lba in enumerate(lbas):
            device.poke_extent(lba, _block(1000 + n))
        changes = db._conn.total_changes
        db.checkpoint(device_id, {"userdata": capture(device)})
        after = _chunk_map(db)
        touched = {lba // CHUNK_BLOCKS for lba in lbas}
        assert {c for c in after if after[c] != before[c]} == touched
        # one new block per written LBA, one row per touched chunk, and
        # the medium's images row — nothing else
        assert db._conn.total_changes - changes == \
            len(lbas) + len(touched) + 1
        assert db.load_image(device_id, "userdata").blocks == \
            capture(device).blocks
        db.close()

    def test_clean_checkpoint_writes_no_blocks_or_chunks(self, tmp_path):
        db = FleetStore(tmp_path / "f.db")
        device_id = db.create_device("d", {})
        device = _cow_device()
        db.checkpoint(device_id, {"userdata": capture(device)}, {"gen": 1})
        changes = db._conn.total_changes
        db.checkpoint(device_id, {"userdata": capture(device)}, {"gen": 2})
        # the images row (taken_at) and the state row only
        assert db._conn.total_changes - changes == 2
        db.close()

    def test_failed_checkpoint_leaves_committed_manifests_untouched(
        self, tmp_path
    ):
        db = FleetStore(tmp_path / "f.db")
        device_id = db.create_device("d", {})
        db.checkpoint(
            device_id,
            {"userdata": _snap(1), "cache": _snap(2), "devlog": _snap(3)},
            {"gen": 1},
        )
        committed = dict(db._committed)
        # the poison snapshot of the torn-checkpoint regression above:
        # userdata is staged, then the cache medium fails to bind
        poison = Snapshot(
            label="p", taken_at=1.0, block_size=BS,
            blocks=(_block(9), object()),
            hashes=("h-ok", "h-poison"),
        )
        with pytest.raises((sqlite3.InterfaceError, sqlite3.ProgrammingError)):
            db.checkpoint(
                device_id,
                {"userdata": _snap(7, 1.0), "cache": poison},
                {"gen": 2},
            )
        assert db._committed == committed
        # the next good checkpoint diffs against generation 1, so it must
        # land exactly what a fresh full write of the same images lands
        good = {"userdata": _snap(7, 2.0), "cache": _snap(8, 2.0),
                "devlog": _snap(3, 2.0)}
        db.checkpoint(device_id, good, {"gen": 3})
        fresh = FleetStore(tmp_path / "fresh.db")
        fresh_id = fresh.create_device("d", {})
        fresh.checkpoint(fresh_id, good, {"gen": 3})
        for table in ("images", "image_chunks"):
            assert _rows(db, table) == _rows(fresh, table)
        for medium, snap in good.items():
            assert db.load_image(device_id, medium).blocks == snap.blocks
            assert fresh.load_image(fresh_id, medium).blocks == snap.blocks
        db.close()
        fresh.close()

    def test_reopen_load_checkpoint_reopen_roundtrip(self, tmp_path):
        path = tmp_path / "f.db"
        db = FleetStore(path)
        device_id = db.create_device("d", {})
        device = _cow_device()
        db.checkpoint(device_id, {"userdata": capture(device)})
        db.close()
        # a restarted daemon: load the image, restore it, keep going
        db = FleetStore(path)
        image = db.load_image(device_id, "userdata")
        resumed = RAMBlockDevice(
            DELTA_BLOCKS, block_size=BS,
            store=CowOverlayStore(DELTA_BLOCKS, BS),
        )
        restore(resumed, image)
        resumed.poke_extent(3, _block(1001))
        changes = db._conn.total_changes
        latest = capture(resumed)
        db.checkpoint(device_id, {"userdata": latest})
        # load_image seeded the diff base: one block, one chunk, one row
        assert db._conn.total_changes - changes == 3
        db.close()
        db = FleetStore(path)
        loaded = db.load_image(device_id, "userdata")
        assert loaded.blocks == latest.blocks
        assert loaded.manifest_digest() == latest.manifest_digest()
        db.close()

    def test_checkpoint_after_reopen_reads_base_from_db(self, tmp_path):
        path = tmp_path / "f.db"
        db = FleetStore(path)
        device_id = db.create_device("d", {})
        device = _cow_device()
        db.checkpoint(device_id, {"userdata": capture(device)})
        db.close()
        db = FleetStore(path)  # no load_image: first use reads the chunks
        device.poke_extent(200, _block(5))
        changes = db._conn.total_changes
        db.checkpoint(device_id, {"userdata": capture(device)})
        assert db._conn.total_changes - changes == 3
        assert db.load_image(device_id, "userdata").blocks == \
            capture(device).blocks
        db.close()

    def test_v1_file_is_refused(self, tmp_path):
        path = tmp_path / "v1.db"
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
            "INSERT INTO meta VALUES ('schema_version', '1');"
            "CREATE TABLE images (device_id INTEGER, medium TEXT, "
            "block_size INTEGER, taken_at REAL, manifest TEXT);"
        )
        conn.commit()
        conn.close()
        before = path.read_bytes()
        with pytest.raises(ServerError) as exc:
            FleetStore(path)
        message = str(exc.value)
        assert "schema version 1" in message
        assert f"speaks {STORE_SCHEMA_VERSION}" in message
        assert STORE_SCHEMA_VERSION == 3
        # refusing a file must not modify it: same bytes (still in the
        # rollback-journal mode it was written in), and no WAL sidecars
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v1.db"]

    def test_v2_file_is_refused(self, tmp_path):
        """A v2 file stores whole-image SHA-256 snapshot digests, not the
        manifest digests v3 writes, so it is refused untouched too."""
        path = tmp_path / "v2.db"
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
            "INSERT INTO meta VALUES ('schema_version', '2');"
            "CREATE TABLE snapshots (id INTEGER PRIMARY KEY, "
            "device_id INTEGER, label TEXT, taken_at REAL, digest TEXT, "
            "block_size INTEGER, manifest BLOB);"
            "INSERT INTO snapshots VALUES "
            "(1, 1, 'a', 0.0, 'full-image-sha256', 512, x'');"
        )
        conn.commit()
        conn.close()
        before = path.read_bytes()
        with pytest.raises(ServerError) as exc:
            FleetStore(path)
        message = str(exc.value)
        assert "schema version 2" in message
        assert f"speaks {STORE_SCHEMA_VERSION}" in message
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v2.db"]

    def test_snapshot_diff_from_manifests_matches_block_diff(self, tmp_path):
        db = FleetStore(tmp_path / "f.db")
        device_id = db.create_device("d", {})
        device = _cow_device()
        first = capture(device, label="a")
        _, _, first_delta = db.add_snapshot(device_id, first)
        assert first_delta is None
        blocks_before = db.stats()["blocks"]
        for lba in (0, 1, 2, 99, DELTA_BLOCKS - 1):
            device.poke_extent(lba, _block(500))  # one distinct new block
        device.poke_extent(150, _block(0))  # content already stored
        second = capture(device, label="b")
        _, digest, delta = db.add_snapshot(device_id, second)
        # the block-by-block diff of the two captured images
        assert delta == diff(first, second)
        assert digest == second.manifest_digest()
        assert delta.changed_blocks == (0, 1, 2, 99, 150, DELTA_BLOCKS - 1)
        assert db.stats()["blocks"] == blocks_before + 1
        db.close()


class _IndexOnly:
    """A block sequence that can be indexed but not iterated; it records
    every index it serves."""

    def __init__(self, blocks):
        self._blocks = blocks
        self.indexed = []

    def __len__(self):
        return len(self._blocks)

    def __getitem__(self, index):
        self.indexed.append(index)
        return self._blocks[index]

    def __iter__(self):
        raise AssertionError("the whole image was iterated")


class TestSnapshotRoute:
    """``add_snapshot`` diffs against the previous snapshot's manifest,
    kept in memory, and reads only the blocks at changed LBAs."""

    def test_second_snapshot_reads_only_changed_lbas(self, tmp_path):
        db = FleetStore(tmp_path / "f.db")
        device_id = db.create_device("d", {})
        device = _cow_device()
        db.add_snapshot(device_id, capture(device, label="a"))
        device.poke_extent(5, _block(900))
        device.poke_extent(200, _block(901))
        frozen = capture(device, label="b")
        blocks = _IndexOnly(frozen.blocks)
        snapshot_id, digest, delta = db.add_snapshot(
            device_id,
            Snapshot(label="b", taken_at=0.0, block_size=BS,
                     blocks=blocks, hashes=frozen.hashes),
        )
        assert delta.changed_blocks == (5, 200)
        assert sorted(set(blocks.indexed)) == [5, 200]
        assert digest == frozen.manifest_digest()
        assert db.list_snapshots(device_id)[-1] == {
            "id": snapshot_id, "label": "b", "taken_at": 0.0, "digest": digest,
        }
        db.close()

    def test_restarted_store_diffs_against_the_pre_restart_snapshot(
        self, tmp_path
    ):
        path = tmp_path / "f.db"
        db = FleetStore(path)
        device_id = db.create_device("d", {})
        device = _cow_device()
        db.add_snapshot(device_id, capture(device, label="before"))
        db.close()
        db = FleetStore(path)
        device.poke_extent(130, _block(777))
        changes = db._conn.total_changes
        _, digest, delta = db.add_snapshot(
            device_id, capture(device, label="after")
        )
        assert (delta.before, delta.changed_blocks) == ("before", (130,))
        # the new block and the snapshots row
        assert db._conn.total_changes - changes == 2
        assert [s["digest"] for s in db.list_snapshots(device_id)][-1] == \
            digest
        db.close()

    def test_rolled_back_snapshot_leaves_the_diff_base(self, tmp_path):
        db = FleetStore(tmp_path / "f.db")
        device_id = db.create_device("d", {})
        first = _snap(1)
        db.add_snapshot(device_id, first)
        base = db._last_snapshot[device_id]
        hashes = list(first.block_hashes())
        hashes[1] = "h-poison"
        poison = Snapshot(
            label="p", taken_at=1.0, block_size=BS,
            blocks=(first.blocks[0], object()) + first.blocks[2:],
            hashes=tuple(hashes),
        )
        with pytest.raises((sqlite3.InterfaceError, sqlite3.ProgrammingError)):
            db.add_snapshot(device_id, poison)
        assert db._last_snapshot[device_id] is base
        assert len(db.list_snapshots(device_id)) == 1
        _, _, delta = db.add_snapshot(device_id, _snap(7))
        assert delta.before == first.label
        assert delta.changed_blocks == (0, 1, 2, 3)
        db.close()

    def test_delete_drops_the_diff_base(self, tmp_path):
        db = FleetStore(tmp_path / "f.db")
        device_id = db.create_device("d", {})
        db.add_snapshot(device_id, _snap(1))
        db.delete_device(device_id)
        assert device_id not in db._last_snapshot
        db.close()


class TestDurableJournal:
    """File databases commit through a WAL with FULL sync; ``:memory:``
    stores keep SQLite's in-memory journal."""

    def test_fresh_file_db_runs_wal_with_full_sync(self, tmp_path):
        db = FleetStore(tmp_path / "f.db")
        assert db._conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        assert db._conn.execute("PRAGMA synchronous").fetchone() == (2,)
        db.close()

    def test_file_db_left_out_of_wal_is_refused(self, tmp_path, monkeypatch):
        connect = sqlite3.connect

        class KeepsJournal:
            """A connection on which the switch to WAL does nothing."""

            def __init__(self, conn):
                self.conn = conn

            def __getattr__(self, name):
                return getattr(self.conn, name)

            def execute(self, sql, *args):
                if sql.lower().startswith("pragma journal_mode="):
                    sql = "PRAGMA journal_mode"
                return self.conn.execute(sql, *args)

        monkeypatch.setattr(
            sqlite3, "connect", lambda *a, **k: KeepsJournal(connect(*a, **k))
        )
        with pytest.raises(ServerError, match="journal mode 'delete', not wal"):
            FleetStore(tmp_path / "f.db")

    def test_reopen_after_close_loads_the_same_image(self, tmp_path):
        path = tmp_path / "f.db"
        db = FleetStore(path)
        device_id = db.create_device("d", {})
        device = _cow_device()
        device.poke_extent(7, _block(7))
        image = capture(device)
        db.checkpoint(device_id, {"userdata": image}, {"gen": 1})
        assert (tmp_path / "f.db-wal").exists()
        db.close()
        # the last connection's close folds the WAL back into the file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.db"]
        db = FleetStore(path)
        assert db._conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        loaded = db.load_image(device_id, "userdata")
        assert loaded.blocks == image.blocks
        assert loaded.manifest_digest() == image.manifest_digest()
        assert _record(db, device_id)["state"] == {"gen": 1}
        db.close()

    def test_memory_store_keeps_working(self):
        db = FleetStore(":memory:")
        assert db._conn.execute("PRAGMA journal_mode").fetchone() == (
            "memory",
        )
        device_id = db.create_device("d", {})
        image = capture(_cow_device())
        db.checkpoint(device_id, {"userdata": image})
        assert db.load_image(device_id, "userdata").blocks == image.blocks
        db.close()


# ---------------------------------------------------------------------------
# The server device's media: always the CoW store
# ---------------------------------------------------------------------------


def _cow_media(device):
    return all(
        isinstance(medium.store, CowOverlayStore)
        for _, medium in device._media()
    )


class TestServerStoreBackend:
    def test_store_backend_threads_to_every_medium(self, tmp_path):
        """Every daemon medium is CoW, on create and after a resume."""
        db = FleetStore(tmp_path / "f.db")
        config = DeviceConfig(name="cow-dev", seed=4)
        device_id = db.create_device(config.name, config.to_spec())
        device = ServerDevice.create(device_id, config, db, tmp_path)
        assert _cow_media(device)
        device.writer.close()
        resumed = ServerDevice.resume(_record(db, device_id), db, tmp_path)
        assert _cow_media(resumed)
        resumed.writer.close()
        db.close()

    def test_offline_snapshot_digest_is_the_image_digest(self, tmp_path):
        """One image digest: offline, a snapshot's ``digest`` is the
        device's ``image_digest``. (A booted device's post-snapshot
        checkpoint re-commits the thin metadata, so the two differ.)"""
        db = FleetStore(tmp_path / "f.db")
        config = DeviceConfig(name="offline", seed=5)
        device_id = db.create_device(config.name, config.to_spec())
        device = ServerDevice.create(device_id, config, db, tmp_path)
        device.boot(config.decoy_password)
        device.write("/sdcard/x", b"x" * 8192)
        device.crash()
        first = device.snapshot("a")
        described = device.describe()
        assert first["digest"] == described["image_digest"]
        assert first["digest"] == \
            capture(device.phone.userdata).manifest_digest()
        assert [s["digest"] for s in described["snapshots"]] == \
            [first["digest"]]
        second = device.snapshot("b")
        assert second["digest"] == first["digest"]
        assert second["diff_vs_previous"]["changed_blocks"] == 0
        device.writer.close()
        db.close()

    def test_digest_stable_across_resume(self, tmp_path):
        """image_digest is content-addressed: resuming the same fleet db
        must report the same digest."""
        db = FleetStore(tmp_path / "f.db")
        config = DeviceConfig(name="movable", seed=8)
        device_id = db.create_device(config.name, config.to_spec())
        device = ServerDevice.create(device_id, config, db, tmp_path)
        device.boot(config.decoy_password)
        device.write("/sdcard/x", b"x" * 4096)
        digest = device.image_digest
        assert digest is not None
        device.writer.close()
        record = _record(db, device_id)
        resumed = ServerDevice.resume(record, db, tmp_path)
        assert resumed.image_digest == digest
        resumed.writer.close()
        db.close()
