"""SQLite session persistence for the PDE-as-a-service daemon.

The store is what makes the fleet *resident*: every hosted device's spec
(seed, geometry, passwords — this is a simulator, the spec is the
experiment definition, not a secret), lifecycle state and a block-interned
image of its storage medium live in one SQLite file, checkpointed after
every mutating operation. A daemon restart — graceful or a plain kill —
re-creates each device from its spec, restores the checkpointed image
byte-for-byte onto the fresh medium and re-attaches the PDE system over
it, exactly like powering a real phone back up: the on-flash half survives,
the in-RAM half (mounts, pool object, session keys) is rebuilt by booting.

Images and adversary snapshots share one content-addressed ``blocks``
table (SHA-256 keyed), the same interning trick
:func:`repro.blockdev.snapshot.capture` uses in RAM: a fleet of mostly
empty 16 MiB devices costs kilobytes, not gigabytes, and repeated
snapshots of a slowly changing device only store the churn.

Manifests (which block lives at which LBA) have one codec: the raw
32-byte SHA-256 digests, packed back to back. An image manifest is split
into fixed rows of :data:`CHUNK_BLOCKS` LBAs, and the store keeps each
medium's last *committed* manifest in memory, so a checkpoint diffs the
new capture against it and touches only what changed: blocks at changed
LBAs are interned and only the chunk rows holding a changed LBA are
rewritten. With the copy-on-write capture in front (O(dirty) hashing),
the whole checkpoint is O(blocks touched since the last one). Adversary
snapshots work the same way against each device's last committed
snapshot manifest, also kept in memory.

File databases run in WAL journal mode with ``synchronous=FULL``: a
commit appends its pages to ``{db}-wal`` and fsyncs that file once, so a
kill after ``COMMIT`` returns keeps the checkpoint and a kill before it
keeps the previous one. The mode is set only after the schema gate has
passed (a refused file is never touched), and a file that SQLite will not
switch to WAL is refused too.

All methods are safe to call from the executor's worker threads: one
connection guarded by one lock (operations are short — the daemon's
concurrency lives in the simulated devices, not in SQLite).
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.blockdev.snapshot import Snapshot, SnapshotDiff, changed_blocks
from repro.errors import DeviceExistsError, NoSuchDeviceError, ServerError

#: Bump on incompatible schema changes; stored in ``meta``. Files written
#: at another version are refused — there is no migration path.
STORE_SCHEMA_VERSION = 3

#: LBAs per ``image_chunks`` row: a one-block write rewrites one 2 KiB row.
CHUNK_BLOCKS = 64

_DIGEST_HEX = 64  # hex characters per packed 32-byte SHA-256 digest

_META = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS devices (
    id    INTEGER PRIMARY KEY AUTOINCREMENT,
    name  TEXT NOT NULL UNIQUE,
    spec  TEXT NOT NULL,
    state TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS blocks (
    hash  TEXT PRIMARY KEY,
    data  BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS images (
    device_id  INTEGER NOT NULL REFERENCES devices(id),
    medium     TEXT NOT NULL,
    block_size INTEGER NOT NULL,
    taken_at   REAL NOT NULL,
    PRIMARY KEY (device_id, medium)
);
CREATE TABLE IF NOT EXISTS image_chunks (
    device_id  INTEGER NOT NULL,
    medium     TEXT NOT NULL,
    chunk      INTEGER NOT NULL,
    hashes     BLOB NOT NULL,
    PRIMARY KEY (device_id, medium, chunk)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS snapshots (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    device_id  INTEGER NOT NULL REFERENCES devices(id),
    label      TEXT NOT NULL,
    taken_at   REAL NOT NULL,
    digest     TEXT NOT NULL,
    block_size INTEGER NOT NULL,
    manifest   BLOB NOT NULL
);
"""


def pack_manifest(hashes: Sequence[str]) -> bytes:
    """Hex SHA-256 block hashes -> packed raw 32-byte digests."""
    return bytes.fromhex("".join(hashes))


def unpack_manifest(blob: bytes) -> Tuple[str, ...]:
    """Inverse of :func:`pack_manifest` (lowercase hex, like hashlib)."""
    text = blob.hex()
    return tuple(
        text[i : i + _DIGEST_HEX] for i in range(0, len(text), _DIGEST_HEX)
    )


class FleetStore:
    """The daemon's session database.

    *path* is a filesystem path or ``":memory:"`` (ephemeral — the fleet
    then does not survive a restart, which is fine for tests and demos).
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        if self.path != ":memory:":
            pathlib.Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # one connection shared across worker threads, guarded by _lock
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._lock = threading.Lock()
        # operational bookkeeping (not persisted): how many checkpoint
        # transactions this process has committed, and the wall seconds
        # the most recent one took inside the lock
        self.checkpoints = 0
        self.last_checkpoint_wall_s = 0.0
        # (device_id, medium) -> hash manifest as of the last COMMIT; a
        # checkpoint diffs against this and promotes its own manifests
        # only once its transaction has committed
        self._committed: Dict[Tuple[int, str], Tuple[str, ...]] = {}
        # device_id -> (label, manifest) of its last committed snapshot
        # (None: it has none), the snapshot route's diff base, kept like
        # _committed
        self._last_snapshot: Dict[
            int, Optional[Tuple[str, Tuple[str, ...]]]
        ] = {}
        with self._lock:
            self._conn.executescript(_META)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is not None and int(row[0]) != STORE_SCHEMA_VERSION:
                self._conn.close()
                raise ServerError(
                    f"fleet db {self.path} has schema version {row[0]}, "
                    f"this daemon speaks {STORE_SCHEMA_VERSION}"
                )
            if self.path != ":memory:":
                self._use_wal_locked()
            self._conn.executescript(_SCHEMA)
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(STORE_SCHEMA_VERSION)),
                )
                self._conn.commit()

    def _use_wal_locked(self) -> None:
        """Switch a file db to WAL with FULL sync (see the module docs);
        a file SQLite keeps in another journal mode is refused."""
        (mode,) = self._conn.execute("PRAGMA journal_mode=WAL").fetchone()
        if mode.lower() != "wal":
            self._conn.close()
            raise ServerError(
                f"fleet db {self.path} stayed in journal mode {mode!r}, "
                "not wal"
            )
        self._conn.execute("PRAGMA synchronous=FULL")

    # -- devices ---------------------------------------------------------------

    def create_device(self, name: str, spec: Dict[str, object]) -> int:
        """Insert a device row; returns its id. Names are unique."""
        with self._lock:
            try:
                cur = self._conn.execute(
                    "INSERT INTO devices (name, spec, state) VALUES (?, ?, ?)",
                    (name, json.dumps(spec, sort_keys=True), "{}"),
                )
            except sqlite3.IntegrityError:
                raise DeviceExistsError(
                    f"device name {name!r} is already in use"
                ) from None
            self._conn.commit()
            return int(cur.lastrowid)

    def list_devices(self) -> List[Dict[str, object]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, name, spec, state FROM devices ORDER BY id"
            ).fetchall()
        return [
            {
                "id": r[0],
                "name": r[1],
                "spec": json.loads(r[2]),
                "state": json.loads(r[3]),
            }
            for r in rows
        ]

    def delete_device(self, device_id: int) -> None:
        """Drop a device with its image and snapshots; prune orphan blocks."""
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM devices WHERE id = ?", (device_id,)
            )
            if cur.rowcount == 0:
                raise NoSuchDeviceError(device_id)
            for table in ("images", "image_chunks", "snapshots"):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE device_id = ?",  # fixed names
                    (device_id,),
                )
            self._prune_blocks_locked()
            self._conn.commit()
            for key in [k for k in self._committed if k[0] == device_id]:
                del self._committed[key]
            self._last_snapshot.pop(device_id, None)

    # -- images & snapshots ----------------------------------------------------

    def _intern_locked(
        self, snapshot: Snapshot, hashes: Sequence[str], lbas: Iterable[int]
    ) -> None:
        """Insert the blocks at *lbas*, once per distinct hash.

        Every other LBA's hash is already referenced by a stored manifest,
        so its block is already in the table.
        """
        rows: Dict[str, object] = {}
        for i in lbas:
            rows.setdefault(hashes[i], snapshot.blocks[i])
        self._conn.executemany(
            "INSERT OR IGNORE INTO blocks (hash, data) VALUES (?, ?)",
            rows.items(),
        )

    def _committed_manifest_locked(
        self, device_id: int, medium: str
    ) -> Optional[Tuple[str, ...]]:
        """The medium's last committed manifest, read from the DB once."""
        key = (device_id, medium)
        if key not in self._committed:
            blobs = self._conn.execute(
                "SELECT hashes FROM image_chunks "
                "WHERE device_id = ? AND medium = ? ORDER BY chunk",
                key,
            ).fetchall()
            if not blobs:
                return None
            self._committed[key] = unpack_manifest(
                b"".join(blob for (blob,) in blobs)
            )
        return self._committed[key]

    def _stage_image_locked(
        self, device_id: int, medium: str, snapshot: Snapshot
    ) -> Tuple[str, ...]:
        """Write one medium's delta vs its committed manifest into the open
        transaction; returns the new manifest, which the caller promotes
        once the transaction has committed."""
        new = snapshot.block_hashes()
        old = self._committed_manifest_locked(device_id, medium)
        if old is None or len(old) != len(new):
            self._conn.execute(
                "DELETE FROM image_chunks WHERE device_id = ? AND medium = ?",
                (device_id, medium),
            )
            changed = range(len(new))
            chunks = range(0, len(new), CHUNK_BLOCKS)
        else:
            changed = changed_blocks(old, new)
            chunks = sorted({i - i % CHUNK_BLOCKS for i in changed})
        self._intern_locked(snapshot, new, changed)
        self._conn.executemany(
            "INSERT OR REPLACE INTO image_chunks "
            "(device_id, medium, chunk, hashes) VALUES (?, ?, ?, ?)",
            (
                (
                    device_id,
                    medium,
                    lo // CHUNK_BLOCKS,
                    pack_manifest(new[lo : lo + CHUNK_BLOCKS]),
                )
                for lo in chunks
            ),
        )
        self._conn.execute(
            "INSERT OR REPLACE INTO images "
            "(device_id, medium, block_size, taken_at) VALUES (?, ?, ?, ?)",
            (device_id, medium, snapshot.block_size, snapshot.taken_at),
        )
        return new

    def checkpoint(
        self,
        device_id: int,
        images: Dict[str, Snapshot],
        state: Optional[Dict[str, object]] = None,
    ) -> None:
        """Atomically persist a device's media images and lifecycle state.

        All image rows (and the state row, when given) land in ONE SQLite
        transaction: a daemon killed mid-checkpoint leaves the previous
        consistent fleet image intact, never a torn one mixing media from
        two different checkpoints. Each key of *images* names a physical
        device within the phone — ``userdata``, ``cache`` or ``devlog``; a
        bootable checkpoint needs all three (the log partitions carry their
        own ext4 filesystems, and their breadcrumbs are experiment data).

        Each medium costs O(changed LBAs) in SQLite: the new manifest is
        diffed against the last committed one, which this process keeps
        in memory and updates only after the COMMIT succeeds — a rolled
        back checkpoint leaves it, like the file, untouched.
        """
        with self._lock:
            started = time.monotonic()
            staged: Dict[Tuple[int, str], Tuple[str, ...]] = {}
            try:
                for medium, snapshot in images.items():
                    staged[(device_id, medium)] = self._stage_image_locked(
                        device_id, medium, snapshot
                    )
                if state is not None:
                    cur = self._conn.execute(
                        "UPDATE devices SET state = ? WHERE id = ?",
                        (json.dumps(state, sort_keys=True), device_id),
                    )
                    if cur.rowcount == 0:
                        raise NoSuchDeviceError(device_id)
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
            self._committed.update(staged)
            self.checkpoints += 1
            self.last_checkpoint_wall_s = time.monotonic() - started

    def _load_manifest_locked(
        self,
        manifest: Tuple[str, ...],
        block_size: int,
        label: str,
        taken_at: float,
    ) -> Snapshot:
        interned: Dict[str, bytes] = {}
        blocks: List[bytes] = []
        for h in manifest:
            data = interned.get(h)
            if data is None:
                row = self._conn.execute(
                    "SELECT data FROM blocks WHERE hash = ?", (h,)
                ).fetchone()
                if row is None:
                    raise ServerError(
                        f"fleet db {self.path} is corrupt: block {h} "
                        "referenced by a manifest is missing"
                    )
                data = interned[h] = bytes(row[0])
            blocks.append(data)
        return Snapshot(
            label=label,
            taken_at=taken_at,
            block_size=block_size,
            blocks=tuple(blocks),
            hashes=manifest,
        )

    def load_image(self, device_id: int, medium: str) -> Optional[Snapshot]:
        """The medium's last committed image (also seeds the diff base)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT block_size, taken_at FROM images "
                "WHERE device_id = ? AND medium = ?",
                (device_id, medium),
            ).fetchone()
            if row is None:
                return None
            manifest = self._committed_manifest_locked(device_id, medium)
            return self._load_manifest_locked(
                manifest or (), row[0], f"image-{device_id}-{medium}", row[1]
            )

    def add_snapshot(
        self, device_id: int, snapshot: Snapshot
    ) -> Tuple[int, str, Optional[SnapshotDiff]]:
        """Persist one adversary snapshot; returns its id, its digest
        (:meth:`~repro.blockdev.snapshot.Snapshot.manifest_digest`, like
        a device's ``image_digest``) and its diff against the device's
        previous snapshot (``None`` for the first).

        The diff runs over the new manifest and the previous snapshot's,
        which this process keeps in memory (read from the DB on first
        use) and updates only after the COMMIT succeeds. Only blocks at
        LBAs it reports changed are read and interned — the rest are
        already stored under the previous snapshot.
        """
        new = snapshot.block_hashes()
        digest = snapshot.manifest_digest()
        with self._lock:
            if device_id not in self._last_snapshot:
                row = self._conn.execute(
                    "SELECT label, manifest FROM snapshots "
                    "WHERE device_id = ? ORDER BY id DESC LIMIT 1",
                    (device_id,),
                ).fetchone()
                self._last_snapshot[device_id] = (
                    None if row is None else (row[0], unpack_manifest(row[1]))
                )
            previous = self._last_snapshot[device_id]
            delta = None
            changed = range(len(new))
            if previous is not None and len(previous[1]) == len(new):
                changed = changed_blocks(previous[1], new)
                delta = SnapshotDiff(
                    before=previous[0],
                    after=snapshot.label,
                    changed_blocks=tuple(changed),
                )
            try:
                self._intern_locked(snapshot, new, changed)
                cur = self._conn.execute(
                    "INSERT INTO snapshots "
                    "(device_id, label, taken_at, digest, block_size, "
                    "manifest) VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        device_id,
                        snapshot.label,
                        snapshot.taken_at,
                        digest,
                        snapshot.block_size,
                        pack_manifest(new),
                    ),
                )
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
            self._last_snapshot[device_id] = (snapshot.label, new)
            return int(cur.lastrowid), digest, delta

    def list_snapshots(self, device_id: int) -> List[Dict[str, object]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, label, taken_at, digest FROM snapshots "
                "WHERE device_id = ? ORDER BY id",
                (device_id,),
            ).fetchall()
        return [
            {"id": r[0], "label": r[1], "taken_at": r[2], "digest": r[3]}
            for r in rows
        ]

    # -- maintenance -----------------------------------------------------------

    def _prune_blocks_locked(self) -> int:
        """Delete blocks referenced by no image chunk or snapshot manifest."""
        referenced = set()
        for query in (
            "SELECT hashes FROM image_chunks",
            "SELECT manifest FROM snapshots",
        ):
            for (blob,) in self._conn.execute(query):
                referenced.update(unpack_manifest(blob))
        cur = self._conn.execute("SELECT hash FROM blocks")
        orphans = [(h,) for (h,) in cur.fetchall() if h not in referenced]
        self._conn.executemany("DELETE FROM blocks WHERE hash = ?", orphans)
        return len(orphans)

    def stats(self) -> Dict[str, object]:
        """Row counts + checkpoint bookkeeping, for ``/healthz`` and tests."""
        with self._lock:
            out: Dict[str, object] = {}
            for table in (
                "devices", "blocks", "images", "image_chunks", "snapshots"
            ):
                out[table] = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}"  # fixed table names
                ).fetchone()[0]
            out["checkpoints"] = self.checkpoints
            out["last_checkpoint_wall_s"] = self.last_checkpoint_wall_s
            return out

    def close(self) -> None:
        with self._lock:
            self._conn.close()
