"""BlockStore backends and the checkpoints built on them.

Three layers under test: the :class:`~repro.blockdev.store.BlockStore`
contract itself (every backend must be bit-identical at the interface),
the snapshot capture path on top (frozen CoW captures must be
indistinguishable from the legacy peek-scan interner), and the fleet
store's atomic multi-medium checkpoint (a daemon killed between rows must
never leave a torn image behind).
"""

import sqlite3

import pytest

from repro.blockdev import (
    CowOverlayStore,
    EMMCDevice,
    FrozenImage,
    MmapStore,
    RAMBlockDevice,
    RamStore,
    STORE_ENV,
    STORE_KINDS,
    default_store_kind,
    make_store,
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

BS = 512
N = 64


def _store(kind, fill=0):
    return make_store(kind, N, BS, fill=fill)


def _block(tag, bs=BS):
    return bytes([(tag * 41 + i) % 251 for i in range(bs)])


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
# The BlockStore contract, per backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", STORE_KINDS)
class TestStoreContract:
    def test_fresh_store_reads_fill(self, kind):
        store = _store(kind)
        assert store.read_extent(0, N) == b"\x00" * (N * BS)
        store.close()

    def test_write_read_roundtrip(self, kind):
        store = _store(kind)
        payload = _block(1) + _block(2) + _block(3)
        store.write_extent(5, payload)
        assert store.read_extent(5, 3) == payload
        assert store.read_extent(4, 1) == b"\x00" * BS
        assert store.read_extent(8, 1) == b"\x00" * BS
        store.close()

    def test_discard_restores_fill(self, kind):
        store = _store(kind, fill=0xAB)
        fill = bytes([0xAB]) * BS
        assert store.read_extent(9, 1) == fill
        store.write_extent(9, _block(7))
        store.discard_extent(9, 1)
        assert store.read_extent(9, 1) == fill
        store.close()

    def test_digest_tracks_content_not_backend(self, kind):
        store = _store(kind)
        baseline = _store("ram")
        for target in (store, baseline):
            target.write_extent(0, _block(4) * 2)
            target.write_extent(N - 1, _block(5))
        assert store.digest() == baseline.digest()
        store.close()
        baseline.close()

    def test_overwrite_in_place(self, kind):
        store = _store(kind)
        store.write_extent(3, _block(1) * 4)
        store.write_extent(4, _block(9) * 2)
        assert store.read_extent(3, 4) == (
            _block(1) + _block(9) * 2 + _block(1)
        )
        store.close()


def test_make_store_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown block store kind"):
        make_store("floppy", N, BS)


def test_default_store_kind_reads_env(monkeypatch):
    monkeypatch.delenv(STORE_ENV, raising=False)
    assert default_store_kind() == "ram"
    monkeypatch.setenv(STORE_ENV, "mmap")
    assert default_store_kind() == "mmap"
    monkeypatch.setenv(STORE_ENV, "bogus")
    assert default_store_kind() == "ram"


def test_device_rejects_mismatched_store_geometry():
    store = RamStore(N, BS)
    with pytest.raises(ValueError, match="geometry"):
        RAMBlockDevice(N + 1, block_size=BS, store=store)
    with pytest.raises(ValueError, match="geometry"):
        RAMBlockDevice(N, block_size=BS * 2, store=store)


def test_device_accepts_prebuilt_store():
    store = CowOverlayStore(N, BS)
    device = RAMBlockDevice(N, block_size=BS, store=store)
    assert device.store is store
    device.write_block(0, _block(2))
    assert store.read_extent(0, 1) == _block(2)


def test_mmap_store_close_is_idempotent():
    store = MmapStore(N, BS)
    store.write_extent(0, _block(1))
    store.close()
    store.close()


def test_mmap_store_nonzero_fill_materialized():
    store = MmapStore(8, BS, fill=0x5A)
    assert store.read_extent(0, 8) == bytes([0x5A]) * (8 * BS)
    store.discard_extent(2, 1)
    assert store.read_extent(2, 1) == bytes([0x5A]) * BS
    store.close()


def test_device_close_keeps_peek_working():
    # the historical contract: peeking a closed device still works (the
    # adversary images a powered-off phone), so closing the device must
    # not tear down the store
    for kind in STORE_KINDS:
        device = EMMCDevice(N, block_size=BS, store=kind)
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

    def test_base_geometry_validated(self):
        base = CowOverlayStore(N, BS).freeze()
        with pytest.raises(ValueError, match="geometry"):
            CowOverlayStore(N + 1, BS, base=base)
        resumed = CowOverlayStore(N, BS, base=base)
        assert resumed.read_extent(0, N) == b"\x00" * (N * BS)


# ---------------------------------------------------------------------------
# Snapshot capture: frozen CoW path vs the legacy peek-scan interner
# ---------------------------------------------------------------------------


def _written_device(kind):
    device = RAMBlockDevice(N, block_size=BS, store=kind)
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
        assert frozen.digest() == legacy.digest()
        assert frozen.manifest_digest() == legacy.manifest_digest()
        assert frozen.block_hashes() == legacy.block_hashes()

    def test_capture_interns_duplicate_blocks_on_every_path(self):
        for kind in STORE_KINDS:
            snap = capture(_written_device(kind))
            assert snap.blocks[9] == snap.blocks[30]
            fills = {id(b) for i, b in enumerate(snap.blocks)
                     if snap.blocks[i] == b"\x00" * BS}
            assert len(fills) == 1, kind

    def test_restore_roundtrip_across_backends(self):
        snap = capture(_written_device("ram"))
        for kind in STORE_KINDS:
            device = RAMBlockDevice(N, block_size=BS, store=kind)
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
            db.save_image(device_id, "userdata", snap)
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
        assert db.get_device(device_id)["state"] == {"mode": "public"}
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
        assert db.get_device(device_id)["state"] == {"gen": 1}
        db.close()
        # ...and the on-disk file agrees after a restart
        reopened = FleetStore(path)
        assert reopened.load_image(device_id, "userdata").blocks == \
            _snap(1).blocks
        assert reopened.load_image(device_id, "devlog").blocks == \
            _snap(3).blocks
        assert reopened.get_device(device_id)["state"] == {"gen": 1}
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
    device = RAMBlockDevice(DELTA_BLOCKS, block_size=BS, store="cow")
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
        resumed = RAMBlockDevice(DELTA_BLOCKS, block_size=BS, store="cow")
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
        assert STORE_SCHEMA_VERSION == 2
        # refusing a file must not modify it: same bytes (still in the
        # rollback-journal mode it was written in), and no WAL sidecars
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v1.db"]

    def test_snapshot_diff_from_manifests_matches_block_diff(self, tmp_path):
        db = FleetStore(tmp_path / "f.db")
        device_id = db.create_device("d", {})
        device = _cow_device()
        first_id, first_delta = db.add_snapshot(
            device_id, capture(device, label="a")
        )
        assert first_delta is None
        blocks_before = db.stats()["blocks"]
        for lba in (0, 1, 2, 99, DELTA_BLOCKS - 1):
            device.poke_extent(lba, _block(500))  # one distinct new block
        device.poke_extent(150, _block(0))  # content already stored
        second_id, delta = db.add_snapshot(
            device_id, capture(device, label="b")
        )
        expected = diff(
            db.get_snapshot(device_id, first_id),
            db.get_snapshot(device_id, second_id),
        )
        assert delta == expected
        assert delta.changed_blocks == (0, 1, 2, 99, 150, DELTA_BLOCKS - 1)
        assert db.stats()["blocks"] == blocks_before + 1
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
        assert db.get_device(device_id)["state"] == {"gen": 1}
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
# The server device on an explicit backend
# ---------------------------------------------------------------------------


class TestServerStoreBackend:
    def test_store_backend_threads_to_every_medium(self, tmp_path):
        db = FleetStore(tmp_path / "f.db")
        config = DeviceConfig(name="cow-dev", seed=4)
        device_id = db.create_device(config.name, config.to_spec())
        device = ServerDevice.create(
            device_id, config, db, tmp_path, store_backend="cow"
        )
        for _, medium in device._media():
            assert isinstance(medium.store, CowOverlayStore)
        device.writer.close()
        db.close()

    def test_digest_stable_across_backend_change_on_resume(self, tmp_path):
        """image_digest is content-addressed: resuming the same fleet db
        under a different backend must report the same digest."""
        db = FleetStore(tmp_path / "f.db")
        config = DeviceConfig(name="movable", seed=8)
        device_id = db.create_device(config.name, config.to_spec())
        device = ServerDevice.create(
            device_id, config, db, tmp_path, store_backend="cow"
        )
        device.boot(config.decoy_password)
        device.write("/sdcard/x", b"x" * 4096)
        digest = device.image_digest
        assert digest is not None
        device.writer.close()
        record = db.get_device(device_id)
        resumed = ServerDevice.resume(record, db, tmp_path,
                                      store_backend="mmap")
        assert resumed.image_digest == digest
        assert isinstance(resumed.phone.userdata.store, MmapStore)
        resumed.writer.close()
        db.close()
