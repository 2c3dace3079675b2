"""A simplified ext4-style filesystem.

Faithful to ext4 in the properties that matter for the paper's experiments:

* **block groups** — the device is carved into groups, each with a block
  bitmap, an inode bitmap and an inode table; data allocation prefers the
  group of the previous file block, which produces the *spatial locality*
  the paper's footnote 3 relies on ("writes performed by a file system
  usually exhibit a certain level of spatial locality");
* **inodes** with 12 direct pointers, one indirect and one double-indirect
  block (files up to ~1 GiB at 4 KiB blocks);
* a **magic superblock**, so the Android boot flow can use "does a valid
  ext4 mount?" as its password check, exactly like the prototype
  (Sec. V-B);
* metadata is cached in memory and written back on flush/unmount, like the
  page cache, so the data path costs ~1 device write per block (the regime
  in which the paper's dd numbers were taken with ``conv=fdatasync``);
* an optional **metadata journal** (``journal=True``): each flush gathers
  every dirty metadata block (bitmaps, inode tables, pointer blocks,
  directory content) into one transaction, writes it to a journal region
  at the device tail, flushes, and only then checkpoints the blocks in
  place. ``mount()`` replays a valid journal or discards a torn one, so a
  power cut at any write index leaves the filesystem fsck-clean — the
  property the crash sweeps in ``repro.testing.crashsim`` verify. Without
  the journal the write path is byte-for-byte identical to the unjournaled
  original, keeping the paper-calibrated benches untouched.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from repro import obs
from repro.blockdev.device import BlockDevice, recovery_io
from repro.errors import (
    DirectoryNotEmptyError,
    FileExistsInFS,
    FileNotFoundInFS,
    FilesystemError,
    IsADirectoryFSError,
    NoSpaceError,
    NotADirectoryFSError,
    NotFormattedError,
)
from repro.fs.vfs import (
    FileHandle,
    FileStat,
    Filesystem,
    FsUsage,
    parent_and_name,
    split_path,
)

MAGIC = b"EXT4SIM\x00"
VERSION = 2
JOURNAL_MAGIC = b"EXT4JRNL"
INODE_SIZE = 128
NUM_DIRECT = 12

MODE_FREE = 0
MODE_FILE = 1
MODE_DIR = 2

# magic version bs blocks groups bpg ipg itb journal_blocks clean
_SUPER = struct.Struct("<8sIIQIIIIII")
_INODE = struct.Struct("<HHQ" + "Q" * NUM_DIRECT + "QQ")
_DIRENT_HEAD = struct.Struct("<IH")  # inode number, name length
# journal txn header: magic seq count data_sha; then count u64 targets,
# then a sha256 over everything preceding — a torn header never validates
_JHEAD = struct.Struct("<8sQQ32s")
_JDIGEST_LEN = 32


def default_journal_blocks(num_blocks: int) -> int:
    """Journal region size for a device of *num_blocks* (tail placement)."""
    return max(8, min(256, num_blocks // 16))


def _first_clear(bitmap: bytearray, lo: int, hi: int) -> Optional[int]:
    """The lowest index in ``[lo, hi)`` whose bit is clear, or None.

    Same answer as testing each bit in order, but runs of full (0xFF)
    bytes are skipped at C speed, so bits are tested one at a time only
    in a partial leading byte, the first byte that is not full, and a
    partial tail byte.
    """
    full_end = hi >> 3  # bytes wholly below hi
    index = lo
    while index < hi:
        if not index & 7 and index >> 3 < full_end:
            run = bitmap[index >> 3 : full_end]
            index += 8 * (len(run) - len(run.lstrip(b"\xff")))
            if index >= hi:
                break
        if not bitmap[index >> 3] & (1 << (index & 7)):
            return index
        index += 1
    return None


@dataclass
class _Inode:
    number: int
    mode: int = MODE_FREE
    links: int = 0
    size: int = 0
    direct: List[int] = field(default_factory=lambda: [0] * NUM_DIRECT)
    indirect: int = 0
    double_indirect: int = 0

    def pack(self) -> bytes:
        raw = _INODE.pack(
            self.mode, self.links, self.size,
            *self.direct, self.indirect, self.double_indirect,
        )
        return raw + b"\x00" * (INODE_SIZE - len(raw))

    @classmethod
    def unpack(cls, number: int, raw: bytes) -> "_Inode":
        fields = _INODE.unpack(raw[: _INODE.size])
        mode, links, size = fields[0], fields[1], fields[2]
        direct = list(fields[3 : 3 + NUM_DIRECT])
        indirect, double_indirect = fields[3 + NUM_DIRECT], fields[4 + NUM_DIRECT]
        return cls(number, mode, links, size, direct, indirect, double_indirect)


class Ext4Filesystem(Filesystem):
    """See module docstring. Inode 1 is the root directory."""

    fstype = "ext4"

    def __init__(
        self,
        device: BlockDevice,
        blocks_per_group: Optional[int] = None,
        journal: Union[bool, int] = False,
    ) -> None:
        """*journal* enables the metadata journal (True for an auto-sized
        region, or an explicit block count); the journal lives at the
        device tail, outside all block groups."""
        bs = device.block_size
        if journal is True:
            self._journal_blocks = default_journal_blocks(device.num_blocks)
        else:
            self._journal_blocks = int(journal)
        if self._journal_blocks < 0 or self._journal_blocks >= device.num_blocks:
            raise FilesystemError(
                f"bad journal size {self._journal_blocks} for "
                f"{device.num_blocks}-block device"
            )
        if blocks_per_group is None:
            # adapt to small devices: one group if the device is tiny
            blocks_per_group = min(
                2048, max(16, device.num_blocks - 1 - self._journal_blocks)
            )
        if blocks_per_group < 16:
            raise FilesystemError("blocks_per_group must be >= 16")
        self._device = device
        self._bs = bs
        self._bpg = blocks_per_group
        self._ipg = max(blocks_per_group // 4, 8)
        self._itb = -(-self._ipg * INODE_SIZE // bs)
        self._meta_per_group = 2 + self._itb  # block bitmap, inode bitmap, table
        self._mounted = False
        # in-memory caches (page-cache analog): group bitmaps are loaded
        # lazily on first touch, pointer blocks and inodes are cached with
        # dirty tracking and written back on flush/unmount
        self._block_bitmaps: Dict[int, bytearray] = {}
        self._inode_bitmaps: Dict[int, bytearray] = {}
        self._inodes: Dict[int, _Inode] = {}
        self._dirty_inodes: Set[int] = set()
        self._dirty_groups: Set[int] = set()
        self._pointer_cache: Dict[int, List[int]] = {}
        self._dirty_pointers: Set[int] = set()
        # journaled-mode state: directory content and freed-inode slots are
        # deferred to flush so every metadata write goes through one txn
        self._dir_cache: Dict[int, Dict[str, int]] = {}
        self._dirty_dirs: Set[int] = set()
        self._zeroed_inodes: Set[int] = set()
        self._capture: Optional[Dict[int, bytes]] = None
        self._journal_seq = 0
        self.journal_replayed = 0   # blocks replayed by the last mount
        self.journal_overflows = 0  # txns that exceeded one journal window
        self._groups = 0
        self._alloc_hint = 0
        self._pointers_per_block = bs // 8

    # -- geometry helpers ------------------------------------------------------

    @property
    def journal_blocks(self) -> int:
        return self._journal_blocks

    @property
    def _journal_start(self) -> int:
        return self._device.num_blocks - self._journal_blocks

    def _group_start(self, group: int) -> int:
        return 1 + group * self._bpg

    def _usable_groups(self) -> int:
        total = self._device.num_blocks - 1 - self._journal_blocks
        groups = total // self._bpg
        if groups == 0:
            raise FilesystemError(
                f"device too small: need at least "
                f"{1 + self._bpg + self._journal_blocks} blocks"
            )
        return groups

    def _data_start(self, group: int) -> int:
        return self._group_start(group) + self._meta_per_group

    # -- device access, optionally captured into a journal txn ------------------

    def _dev_read(self, block: int) -> bytes:
        if self._capture is not None and block in self._capture:
            return self._capture[block]
        return self._device.read_block(block)

    def _dev_write(self, block: int, data: bytes) -> None:
        if self._capture is not None:
            self._capture[block] = bytes(data)
        else:
            self._device.write_block(block, data)

    def _dev_read_run(self, start: int, count: int) -> bytes:
        """Read *count* consecutive device blocks, as one extent if possible.

        With a journal capture active the per-block path is kept — each
        block must consult the transaction individually.
        """
        if count == 1:
            return self._dev_read(start)
        if self._capture is not None:
            return b"".join(self._dev_read(start + i) for i in range(count))
        return self._device.read_blocks(start, count)

    def _dev_write_run(self, start: int, data: bytes) -> None:
        """Write consecutive device blocks, as one extent if possible."""
        bs = self._bs
        if len(data) == bs:
            self._dev_write(start, data)
            return
        if self._capture is not None:
            for i in range(len(data) // bs):
                self._capture[start + i] = bytes(data[i * bs : (i + 1) * bs])
            return
        self._device.write_blocks(start, data)

    # -- lifecycle ----------------------------------------------------------------

    def format(self) -> None:
        groups = self._usable_groups()
        zero = b"\x00" * self._bs
        self._block_bitmaps = {}
        self._inode_bitmaps = {}
        self._inodes = {}
        self._dirty_inodes = set()
        self._dirty_groups = set()
        self._pointer_cache = {}
        self._dirty_pointers = set()
        self._dir_cache = {}
        self._dirty_dirs = set()
        self._zeroed_inodes = set()
        self._journal_seq = 0
        if self._journal_blocks:
            # wipe any stale journal header so a fresh format never replays
            self._device.write_block(self._journal_start, zero)
        self._groups = groups
        for g in range(groups):
            bbm = bytearray(self._bs)
            # group metadata blocks are permanently allocated
            for i in range(self._meta_per_group):
                bbm[i >> 3] |= 1 << (i & 7)
            self._block_bitmaps[g] = bbm
            self._inode_bitmaps[g] = bytearray(self._bs)
            self._device.write_blocks(self._group_start(g) + 2, zero * self._itb)
            self._dirty_groups.add(g)
        self._mounted = True  # allow allocation during format
        root = self._allocate_inode(MODE_DIR)
        if root.number != 1:
            raise FilesystemError("root inode must be number 1")
        self._write_dir_entries(root, {})
        self._write_superblock(clean=True)
        self.flush()
        self._mounted = False

    def _pack_superblock(self, clean: bool) -> bytes:
        raw = _SUPER.pack(
            MAGIC, VERSION, self._bs, self._device.num_blocks,
            self._groups, self._bpg, self._ipg, self._itb,
            self._journal_blocks, 1 if clean else 0,
        )
        return raw + b"\x00" * (self._bs - len(raw))

    def _write_superblock(self, clean: bool) -> None:
        self._device.write_block(0, self._pack_superblock(clean))

    def mount(self) -> None:
        if self._mounted:
            raise FilesystemError("already mounted")
        raw = self._device.read_block(0)
        try:
            (
                magic, version, bs, blocks, groups, bpg, ipg, itb,
                journal_blocks, _clean,
            ) = _SUPER.unpack(raw[: _SUPER.size])
        except struct.error as exc:  # pragma: no cover - fixed-size read
            raise NotFormattedError(str(exc)) from exc
        if magic != MAGIC:
            raise NotFormattedError("no ext4 superblock found")
        if version != VERSION or bs != self._bs or blocks != self._device.num_blocks:
            raise NotFormattedError("superblock geometry mismatch")
        self._groups, self._bpg, self._ipg, self._itb = groups, bpg, ipg, itb
        self._journal_blocks = journal_blocks
        self._meta_per_group = 2 + self._itb
        # bitmaps load lazily on first use (like the kernel's buffer cache)
        self._block_bitmaps = {}
        self._inode_bitmaps = {}
        self._inodes = {}
        self._dirty_inodes = set()
        self._dirty_groups = set()
        self._pointer_cache = {}
        self._dirty_pointers = set()
        self._dir_cache = {}
        self._dirty_dirs = set()
        self._zeroed_inodes = set()
        self.journal_replayed = 0
        if self._journal_blocks:
            if _clean:
                # clean unmount: nothing to replay, but keep the journal
                # sequence number monotonic across sessions
                self._load_journal_seq()
            else:
                self._replay_journal()
            # mark the image dirty (ext4's needs_recovery): until a clean
            # unmount rewrites this flag, every mount replays the journal.
            # The flag occupies the superblock's first sector, so even a
            # torn write leaves a valid superblock (old or new).
            self._write_superblock(clean=False)
        self._mounted = True

    def _bbm(self, group: int) -> bytearray:
        bitmap = self._block_bitmaps.get(group)
        if bitmap is None:
            bitmap = bytearray(self._dev_read(self._group_start(group)))
            self._block_bitmaps[group] = bitmap
        return bitmap

    def _ibm(self, group: int) -> bytearray:
        bitmap = self._inode_bitmaps.get(group)
        if bitmap is None:
            bitmap = bytearray(self._dev_read(self._group_start(group) + 1))
            self._inode_bitmaps[group] = bitmap
        return bitmap

    def flush(self) -> None:
        """Write back dirty metadata (bitmaps, pointers, inodes).

        With the journal enabled every dirty metadata block is captured
        into one transaction, committed to the journal region, flushed,
        and only then checkpointed in place — so an arbitrary power cut
        either replays the whole transaction or discards it. Without the
        journal the write sequence is exactly the legacy one.
        """
        with obs.span("ext4.flush"):
            self._flush_impl()

    def _flush_impl(self) -> None:
        journaling = self._journal_blocks > 0
        if journaling:
            self._capture = {}
        try:
            self._flush_dirs()
            for g in sorted(self._dirty_groups):
                start = self._group_start(g)
                self._dev_write(start, bytes(self._bbm(g)))
                self._dev_write(start + 1, bytes(self._ibm(g)))
            self._dirty_groups.clear()
            for block in sorted(self._dirty_pointers):
                raw = struct.pack(
                    f"<{self._pointers_per_block}Q", *self._pointer_cache[block]
                )
                self._dev_write(block, raw)
            self._dirty_pointers.clear()
            for number in sorted(self._zeroed_inodes):
                self._store_inode(_Inode(number))
            self._zeroed_inodes.clear()
            for number in sorted(self._dirty_inodes):
                self._store_inode(self._inodes[number])
            self._dirty_inodes.clear()
        finally:
            txn, self._capture = self._capture, None
        if journaling and txn:
            self._journal_commit(txn)
        self._device.flush()

    def _flush_dirs(self) -> None:
        """Serialize deferred directory content (journaled mode only)."""
        for number in sorted(self._dirty_dirs):
            entries = self._dir_cache.get(number)
            if entries is None:
                continue
            self._serialize_dir(self._load_inode(number), entries)
        self._dirty_dirs.clear()

    # -- journal ---------------------------------------------------------------

    def _journal_commit(self, txn: Dict[int, bytes]) -> None:
        with obs.span("ext4.journal.commit", blocks=len(txn)):
            self._journal_commit_txn(txn)

    def _journal_commit_txn(self, txn: Dict[int, bytes]) -> None:
        items = sorted(txn.items())
        capacity = min(
            self._journal_blocks - 1,
            (self._bs - _JHEAD.size - _JDIGEST_LEN) // 8,
        )
        if capacity < 1:
            raise FilesystemError("journal region too small for a transaction")
        for lo in range(0, len(items), capacity):
            chunk = items[lo : lo + capacity]
            if lo > 0:
                # a txn wider than the journal window loses single-txn
                # atomicity; counted so tests can size journals correctly
                self.journal_overflows += 1
            self._journal_seq += 1
            payload = b"".join(d for _, d in chunk)
            self._device.write_blocks(self._journal_start + 1, payload)
            head = _JHEAD.pack(
                JOURNAL_MAGIC,
                self._journal_seq,
                len(chunk),
                hashlib.sha256(payload).digest(),
            )
            head += struct.pack(f"<{len(chunk)}Q", *(b for b, _ in chunk))
            head += hashlib.sha256(head).digest()
            self._device.write_block(
                self._journal_start, head + b"\x00" * (self._bs - len(head))
            )
            obs.mark("ext4.journal.committed")
            # Barrier: the journal must be durable before the checkpoint
            # starts overwriting live metadata in place.
            self._device.flush()
            self._checkpoint_chunk(chunk)
            obs.mark("ext4.checkpoint.done")
            self._device.flush()

    def _checkpoint_chunk(self, chunk) -> None:
        """Write (block, data) pairs in place, batching contiguous runs.

        The pairs arrive sorted by block, so coalescing preserves the
        exact per-block device write order.
        """
        run_start = 0
        parts: List[bytes] = []
        for block, data in chunk:
            if parts and block == run_start + len(parts):
                parts.append(data)
            else:
                if parts:
                    self._device.write_blocks(run_start, b"".join(parts))
                run_start = block
                parts = [data]
        if parts:
            self._device.write_blocks(run_start, b"".join(parts))

    def _parse_journal_header(self, raw: bytes) -> Optional[tuple]:
        try:
            magic, seq, count, data_sha = _JHEAD.unpack(raw[: _JHEAD.size])
        except struct.error:  # pragma: no cover - fixed-size read
            return None
        if magic != JOURNAL_MAGIC:
            return None
        targets_end = _JHEAD.size + count * 8
        if targets_end + _JDIGEST_LEN > len(raw):
            return None
        head = raw[:targets_end]
        digest = raw[targets_end : targets_end + _JDIGEST_LEN]
        if hashlib.sha256(head).digest() != digest:
            return None
        targets = list(struct.unpack(f"<{count}Q", raw[_JHEAD.size : targets_end]))
        if any(not 0 <= t < self._device.num_blocks for t in targets):
            return None
        return seq, targets, data_sha

    def _load_journal_seq(self) -> None:
        """Read the journal sequence without replaying (clean mounts)."""
        with recovery_io():
            parsed = self._parse_journal_header(
                self._device.read_block(self._journal_start)
            )
        self._journal_seq = parsed[0] if parsed is not None else 0

    def _replay_journal(self) -> None:
        """Replay the last committed transaction, or discard a torn one.

        A valid journal always holds the *newest* metadata transaction
        (in-place metadata is only ever written via checkpoints that the
        journal precedes), so replaying unconditionally is safe and
        idempotent. Replay I/O is booked as recovery, not workload.
        """
        with recovery_io():
            parsed = self._parse_journal_header(
                self._device.read_block(self._journal_start)
            )
            if parsed is None:
                self._journal_seq = 0
                return
            seq, targets, data_sha = parsed
            raw = self._device.read_blocks(self._journal_start + 1, len(targets))
            datas = [
                raw[i * self._bs : (i + 1) * self._bs]
                for i in range(len(targets))
            ]
            self._journal_seq = seq
            if hashlib.sha256(raw).digest() != data_sha:
                return  # torn commit: discard
            self._checkpoint_chunk(list(zip(targets, datas)))
            if targets:
                self._device.flush()
            self.journal_replayed = len(targets)

    def unmount(self) -> None:
        if not self._mounted:
            raise FilesystemError("not mounted")
        self.flush()
        if self._journal_blocks:
            # the superblock is metadata too: route the clean-flag update
            # through a txn so a cut mid-unmount cannot tear block 0
            self._journal_commit({0: self._pack_superblock(clean=True)})
            self._device.flush()
        else:
            self._write_superblock(clean=True)
        self._mounted = False
        self._inodes = {}
        self._pointer_cache = {}
        self._block_bitmaps = {}
        self._inode_bitmaps = {}
        self._dir_cache = {}
        self._dirty_dirs = set()
        self._zeroed_inodes = set()

    @property
    def mounted(self) -> bool:
        return self._mounted

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise FilesystemError("filesystem is not mounted")

    # -- block allocation ------------------------------------------------------------

    def _bit(self, bitmap: bytearray, index: int) -> bool:
        return bool(bitmap[index >> 3] & (1 << (index & 7)))

    def _set_bit(self, bitmap: bytearray, index: int) -> None:
        bitmap[index >> 3] |= 1 << (index & 7)

    def _clear_bit(self, bitmap: bytearray, index: int) -> None:
        bitmap[index >> 3] &= ~(1 << (index & 7)) & 0xFF

    def _allocate_block(self, goal: Optional[int] = None) -> int:
        """Allocate a data block, preferring the neighbourhood of *goal*."""
        if goal is not None and goal >= 1:
            preferred_group = min((goal - 1) // self._bpg, self._groups - 1)
        else:
            preferred_group = self._alloc_hint
        order = [preferred_group] + [
            g for g in range(self._groups) if g != preferred_group
        ]
        for g in order:
            bitmap = self._bbm(g)
            start_offset = 0
            if goal is not None and g == preferred_group:
                start_offset = max((goal - 1) % self._bpg, self._meta_per_group)
            offset = _first_clear(bitmap, start_offset, self._bpg)
            if offset is None:
                # wrap within the preferred group before moving on
                offset = _first_clear(
                    bitmap, self._meta_per_group, start_offset
                )
            if offset is not None:
                self._set_bit(bitmap, offset)
                self._dirty_groups.add(g)
                self._alloc_hint = g
                return self._group_start(g) + offset
        raise NoSpaceError("no free blocks")

    def _free_block(self, block: int) -> None:
        g = (block - 1) // self._bpg
        offset = (block - 1) % self._bpg
        bitmap = self._bbm(g)
        if not self._bit(bitmap, offset):
            raise FilesystemError(f"double free of block {block}")
        self._clear_bit(bitmap, offset)
        self._dirty_groups.add(g)

    def free_block_count(self) -> int:
        self._require_mounted()
        free = 0
        for g in range(self._groups):
            bitmap = self._bbm(g)
            for offset in range(self._bpg):
                if not self._bit(bitmap, offset):
                    free += 1
        return free

    # -- inode management ------------------------------------------------------------

    def _allocate_inode(self, mode: int) -> _Inode:
        for g in range(self._groups):
            bitmap = self._ibm(g)
            for offset in range(self._ipg):
                if not self._bit(bitmap, offset):
                    self._set_bit(bitmap, offset)
                    self._dirty_groups.add(g)
                    number = g * self._ipg + offset + 1
                    self._zeroed_inodes.discard(number)
                    inode = _Inode(number, mode=mode, links=1)
                    self._inodes[number] = inode
                    self._dirty_inodes.add(number)
                    return inode
        raise NoSpaceError("no free inodes")

    def _free_inode(self, inode: _Inode) -> None:
        g = (inode.number - 1) // self._ipg
        offset = (inode.number - 1) % self._ipg
        self._clear_bit(self._ibm(g), offset)
        self._dirty_groups.add(g)
        self._inodes.pop(inode.number, None)
        self._dirty_inodes.discard(inode.number)
        self._dir_cache.pop(inode.number, None)
        self._dirty_dirs.discard(inode.number)
        # zero the on-disk slot so stale inodes cannot be resurrected; in
        # journaled mode the zeroing is deferred into the next txn
        if self._journal_blocks:
            self._zeroed_inodes.add(inode.number)
        else:
            self._store_inode(_Inode(inode.number))

    def _inode_location(self, number: int) -> tuple:
        g = (number - 1) // self._ipg
        offset = (number - 1) % self._ipg
        per_block = self._bs // INODE_SIZE
        block = self._group_start(g) + 2 + offset // per_block
        return block, (offset % per_block) * INODE_SIZE

    def _load_inode(self, number: int) -> _Inode:
        cached = self._inodes.get(number)
        if cached is not None:
            return cached
        if number in self._zeroed_inodes:
            # freed but not yet zeroed on disk (journaled mode)
            raise FileNotFoundInFS(f"inode {number} is free")
        block, byte_offset = self._inode_location(number)
        raw = self._dev_read(block)
        inode = _Inode.unpack(number, raw[byte_offset : byte_offset + INODE_SIZE])
        if inode.mode == MODE_FREE:
            raise FileNotFoundInFS(f"inode {number} is free")
        self._inodes[number] = inode
        return inode

    def _store_inode(self, inode: _Inode) -> None:
        block, byte_offset = self._inode_location(inode.number)
        raw = bytearray(self._dev_read(block))
        raw[byte_offset : byte_offset + INODE_SIZE] = inode.pack()
        self._dev_write(block, bytes(raw))

    def _mark_dirty(self, inode: _Inode) -> None:
        self._dirty_inodes.add(inode.number)

    # -- file block mapping ----------------------------------------------------------

    def _read_pointer_block(self, block: int) -> List[int]:
        cached = self._pointer_cache.get(block)
        if cached is None:
            raw = self._dev_read(block)
            cached = list(struct.unpack(f"<{self._pointers_per_block}Q", raw))
            self._pointer_cache[block] = cached
        return cached

    def _write_pointer_block(self, block: int, pointers: List[int]) -> None:
        self._pointer_cache[block] = pointers
        self._dirty_pointers.add(block)

    def _alloc_ready(self, goal: Optional[int]) -> bool:
        """True when :meth:`_allocate_block` would succeed with no device I/O.

        Mirrors the allocator's preferred-group logic: the goal's group
        bitmap must already be cached and the first probed offset free, so
        the allocation returns immediately without scanning into (possibly
        uncached) other groups. The sequential-write common case — goal is
        the block just past the previous allocation — satisfies this.
        """
        if goal is None or goal < 1:
            return False
        g = min((goal - 1) // self._bpg, self._groups - 1)
        bitmap = self._block_bitmaps.get(g)
        if bitmap is None:
            return False
        offset = max((goal - 1) % self._bpg, self._meta_per_group)
        return offset < self._bpg and not self._bit(bitmap, offset)

    def _map_ready(
        self, inode: _Inode, index: int, allocate: bool, goal: Optional[int]
    ) -> bool:
        """True when :meth:`_map_block` is guaranteed device-I/O-free.

        The extent write path may only defer data writes past a mapping
        lookup when the lookup itself touches no device blocks (pointer
        chain cached; any allocation memory-only) — otherwise the deferred
        data I/O would reorder against the mapping I/O and perturb the
        simulated clock. Not-ready blocks fall back to the per-block
        step (single-block extents through the same extent IR).
        """
        ppb = self._pointers_per_block
        if index < NUM_DIRECT:
            if inode.direct[index]:
                return True
            return (not allocate) or self._alloc_ready(goal)
        index -= NUM_DIRECT
        if index < ppb:
            if inode.indirect == 0:
                # a hole read is free; allocating the pointer block is not
                return not allocate
            pointers = self._pointer_cache.get(inode.indirect)
            if pointers is None:
                return False
            if pointers[index]:
                return True
            return (not allocate) or self._alloc_ready(goal)
        index -= ppb
        if index >= ppb * ppb:
            return False  # let the per-block step raise NoSpaceError
        if inode.double_indirect == 0:
            return not allocate
        level1 = self._pointer_cache.get(inode.double_indirect)
        if level1 is None:
            return False
        l1_index, l2_index = divmod(index, ppb)
        if level1[l1_index] == 0:
            return not allocate
        level2 = self._pointer_cache.get(level1[l1_index])
        if level2 is None:
            return False
        if level2[l2_index]:
            return True
        return (not allocate) or self._alloc_ready(goal)

    def _map_block(
        self, inode: _Inode, index: int, allocate: bool, goal: Optional[int]
    ) -> int:
        """Resolve file-block *index* to a device block (0 = hole)."""
        ppb = self._pointers_per_block
        if index < NUM_DIRECT:
            block = inode.direct[index]
            if block == 0 and allocate:
                block = self._allocate_block(goal)
                inode.direct[index] = block
                self._mark_dirty(inode)
            return block
        index -= NUM_DIRECT
        if index < ppb:
            if inode.indirect == 0:
                if not allocate:
                    return 0
                inode.indirect = self._allocate_block(goal)
                self._write_pointer_block(inode.indirect, [0] * ppb)
                self._mark_dirty(inode)
            pointers = self._read_pointer_block(inode.indirect)
            block = pointers[index]
            if block == 0 and allocate:
                block = self._allocate_block(goal)
                pointers[index] = block
                self._write_pointer_block(inode.indirect, pointers)
            return block
        index -= ppb
        if index >= ppb * ppb:
            raise NoSpaceError("file exceeds maximum mappable size")
        if inode.double_indirect == 0:
            if not allocate:
                return 0
            inode.double_indirect = self._allocate_block(goal)
            self._write_pointer_block(inode.double_indirect, [0] * ppb)
            self._mark_dirty(inode)
        level1 = self._read_pointer_block(inode.double_indirect)
        l1_index, l2_index = divmod(index, ppb)
        if level1[l1_index] == 0:
            if not allocate:
                return 0
            level1[l1_index] = self._allocate_block(goal)
            self._write_pointer_block(inode.double_indirect, level1)
            self._write_pointer_block(level1[l1_index], [0] * ppb)
        level2 = self._read_pointer_block(level1[l1_index])
        block = level2[l2_index]
        if block == 0 and allocate:
            block = self._allocate_block(goal)
            level2[l2_index] = block
            self._write_pointer_block(level1[l1_index], level2)
        return block

    def _iter_file_blocks(self, inode: _Inode):
        """Yield all allocated (data) blocks of a file, plus pointer blocks."""
        ppb = self._pointers_per_block
        for block in inode.direct:
            if block:
                yield block, True
        if inode.indirect:
            for block in self._read_pointer_block(inode.indirect):
                if block:
                    yield block, True
            yield inode.indirect, False
        if inode.double_indirect:
            level1 = self._read_pointer_block(inode.double_indirect)
            for l1 in level1:
                if l1:
                    for block in self._read_pointer_block(l1):
                        if block:
                            yield block, True
                    yield l1, False
            yield inode.double_indirect, False

    def _truncate(self, inode: _Inode) -> None:
        for block, is_data in self._iter_file_blocks(inode):
            self._free_block(block)
            if not is_data:
                self._pointer_cache.pop(block, None)
                self._dirty_pointers.discard(block)
        inode.direct = [0] * NUM_DIRECT
        inode.indirect = 0
        inode.double_indirect = 0
        inode.size = 0
        self._mark_dirty(inode)

    # -- file content I/O --------------------------------------------------------------

    def _read_range(self, inode: _Inode, offset: int, nbytes: int) -> bytes:
        end = min(offset + nbytes, inode.size)
        if offset >= end:
            return b""
        out: List[bytes] = []
        pos = offset
        # pending run of physically contiguous device blocks
        run_start = 0
        run_len = 0
        run_skip = 0   # bytes to drop from the run's first block
        run_take = 0   # payload bytes the run contributes

        def flush_run() -> None:
            nonlocal run_len
            if run_len:
                raw = self._dev_read_run(run_start, run_len)
                out.append(raw[run_skip : run_skip + run_take])
                run_len = 0

        while pos < end:
            index, within = divmod(pos, self._bs)
            take = min(self._bs - within, end - pos)
            if not self._map_ready(inode, index, False, None):
                # the lookup itself will read pointer blocks: issue the
                # pending data reads first so device order is unchanged
                flush_run()
            block = self._map_block(inode, index, allocate=False, goal=None)
            if block == 0:
                flush_run()
                out.append(b"\x00" * take)
            elif run_len and block == run_start + run_len and within == 0:
                run_len += 1
                run_take += take
            else:
                flush_run()
                run_start, run_len, run_skip, run_take = block, 1, within, take
            pos += take
        flush_run()
        return b"".join(out)

    def _write_range(self, inode: _Inode, offset: int, data: bytes) -> None:
        bs = self._bs
        pos = offset
        cursor = 0
        last_block: Optional[int] = None
        # pending run of physically contiguous full-block writes
        run_start = 0
        run_parts: List[bytes] = []

        def flush_run() -> None:
            if run_parts:
                self._dev_write_run(run_start, b"".join(run_parts))
                run_parts.clear()

        while cursor < len(data):
            index, within = divmod(pos, bs)
            take = min(bs - within, len(data) - cursor)
            goal = last_block + 1 if last_block is not None else None
            full = within == 0 and take == bs
            if (
                full
                and self._map_ready(inode, index, False, None)
                and self._map_ready(inode, index, True, goal)
            ):
                # both lookups are device-I/O-free (allocation, if any, is
                # memory-only), so the data write can be deferred into a run
                block = self._map_block(inode, index, allocate=True, goal=goal)
                chunk = data[cursor : cursor + take]
                if run_parts and block == run_start + len(run_parts):
                    run_parts.append(chunk)
                else:
                    flush_run()
                    run_start = block
                    run_parts.append(chunk)
            else:
                flush_run()
                # page-cache semantics: a freshly allocated page starts as
                # zeros in memory, so a partial write to it pads with zeros —
                # it must never read (and re-encrypt) stale device contents,
                # which through dm-crypt would leak the write length as a
                # zero tail on the medium
                fresh = (
                    self._map_block(inode, index, allocate=False, goal=None) == 0
                )
                block = self._map_block(inode, index, allocate=True, goal=goal)
                if full:
                    self._dev_write(block, data[cursor : cursor + take])
                else:
                    if fresh:
                        raw = bytearray(bs)
                    else:
                        raw = bytearray(self._dev_read(block))
                    raw[within : within + take] = data[cursor : cursor + take]
                    self._dev_write(block, bytes(raw))
            last_block = block
            pos += take
            cursor += take
        flush_run()
        if pos > inode.size:
            inode.size = pos
            self._mark_dirty(inode)

    # -- directories -------------------------------------------------------------------

    def _read_dir_entries(self, inode: _Inode) -> Dict[str, int]:
        # The dir cache exists for the journal's sake (deferred dirs must
        # be read back from memory); legacy mode skips it entirely so the
        # unjournaled I/O profile stays byte-for-byte calibrated.
        if self._journal_blocks:
            cached = self._dir_cache.get(inode.number)
            if cached is not None:
                return dict(cached)
        raw = self._read_range(inode, 0, inode.size)
        entries: Dict[str, int] = {}
        offset = 0
        while offset < len(raw):
            number, name_len = _DIRENT_HEAD.unpack(
                raw[offset : offset + _DIRENT_HEAD.size]
            )
            offset += _DIRENT_HEAD.size
            name = raw[offset : offset + name_len].decode("utf-8")
            offset += name_len
            entries[name] = number
        if self._journal_blocks:
            self._dir_cache[inode.number] = dict(entries)
        return entries

    def _write_dir_entries(self, inode: _Inode, entries: Dict[str, int]) -> None:
        if self._journal_blocks:
            # directory content is metadata: defer serialization to the
            # next flush so it lands inside the journal transaction
            self._dir_cache[inode.number] = dict(entries)
            self._dirty_dirs.add(inode.number)
            return
        self._serialize_dir(inode, entries)

    def _serialize_dir(self, inode: _Inode, entries: Dict[str, int]) -> None:
        parts = []
        for name in sorted(entries):
            encoded = name.encode("utf-8")
            parts.append(_DIRENT_HEAD.pack(entries[name], len(encoded)))
            parts.append(encoded)
        payload = b"".join(parts)
        if len(payload) < inode.size:
            # shrink: rewrite from scratch to free now-unused blocks
            self._truncate(inode)
        self._write_range(inode, 0, payload)
        inode.size = len(payload)
        self._mark_dirty(inode)

    def _resolve(self, path: str) -> _Inode:
        self._require_mounted()
        inode = self._load_inode(1)
        for part in split_path(path):
            if inode.mode != MODE_DIR:
                raise NotADirectoryFSError(f"{part!r} reached through non-directory")
            entries = self._read_dir_entries(inode)
            if part not in entries:
                raise FileNotFoundInFS(path)
            inode = self._load_inode(entries[part])
        return inode

    def _resolve_parent(self, path: str) -> tuple:
        parent_path, name = parent_and_name(path)
        parent = self._resolve(parent_path)
        if parent.mode != MODE_DIR:
            raise NotADirectoryFSError(parent_path)
        return parent, name

    # -- Filesystem API -----------------------------------------------------------------

    def mkdir(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        entries = self._read_dir_entries(parent)
        if name in entries:
            raise FileExistsInFS(path)
        child = self._allocate_inode(MODE_DIR)
        self._write_dir_entries(child, {})
        entries[name] = child.number
        self._write_dir_entries(parent, entries)

    def rmdir(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        entries = self._read_dir_entries(parent)
        if name not in entries:
            raise FileNotFoundInFS(path)
        child = self._load_inode(entries[name])
        if child.mode != MODE_DIR:
            raise NotADirectoryFSError(path)
        if self._read_dir_entries(child):
            raise DirectoryNotEmptyError(path)
        self._truncate(child)
        self._free_inode(child)
        del entries[name]
        self._write_dir_entries(parent, entries)

    def listdir(self, path: str) -> List[str]:
        inode = self._resolve(path)
        if inode.mode != MODE_DIR:
            raise NotADirectoryFSError(path)
        return sorted(self._read_dir_entries(inode))

    def exists(self, path: str) -> bool:
        try:
            self._resolve(path)
            return True
        except (FileNotFoundInFS, NotADirectoryFSError):
            return False

    def stat(self, path: str) -> FileStat:
        inode = self._resolve(path)
        blocks = sum(1 for _b, is_data in self._iter_file_blocks(inode) if is_data)
        return FileStat(
            path=path,
            is_dir=inode.mode == MODE_DIR,
            size=inode.size,
            blocks=blocks,
        )

    def unlink(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        entries = self._read_dir_entries(parent)
        if name not in entries:
            raise FileNotFoundInFS(path)
        inode = self._load_inode(entries[name])
        if inode.mode == MODE_DIR:
            raise IsADirectoryFSError(path)
        self._truncate(inode)
        self._free_inode(inode)
        del entries[name]
        self._write_dir_entries(parent, entries)

    def rename(self, old_path: str, new_path: str) -> None:
        old_parent, old_name = self._resolve_parent(old_path)
        old_entries = self._read_dir_entries(old_parent)
        if old_name not in old_entries:
            raise FileNotFoundInFS(old_path)
        # moving a directory under itself would orphan the subtree
        if new_path.rstrip("/").startswith(old_path.rstrip("/") + "/"):
            raise FilesystemError("cannot move a directory into itself")
        new_parent, new_name = self._resolve_parent(new_path)
        new_entries = self._read_dir_entries(new_parent)
        if new_name in new_entries:
            raise FileExistsInFS(new_path)
        number = old_entries[old_name]
        if old_parent.number == new_parent.number:
            del old_entries[old_name]
            old_entries[new_name] = number
            self._write_dir_entries(old_parent, old_entries)
        else:
            del old_entries[old_name]
            self._write_dir_entries(old_parent, old_entries)
            new_entries = self._read_dir_entries(new_parent)
            new_entries[new_name] = number
            self._write_dir_entries(new_parent, new_entries)

    def statfs(self) -> FsUsage:
        self._require_mounted()
        total = self._groups * self._bpg
        return FsUsage(
            block_size=self._bs,
            total_blocks=total,
            free_blocks=self.free_block_count(),
        )

    def open(self, path: str, mode: str = "r") -> FileHandle:
        if mode not in ("r", "w", "a"):
            raise FilesystemError(f"bad open mode {mode!r}")
        self._require_mounted()
        if mode == "r":
            inode = self._resolve(path)
            if inode.mode == MODE_DIR:
                raise IsADirectoryFSError(path)
            return _Ext4Handle(self, inode, readable=True, position=0)
        parent, name = self._resolve_parent(path)
        entries = self._read_dir_entries(parent)
        if name in entries:
            inode = self._load_inode(entries[name])
            if inode.mode == MODE_DIR:
                raise IsADirectoryFSError(path)
            if mode == "w":
                self._truncate(inode)
        else:
            inode = self._allocate_inode(MODE_FILE)
            entries[name] = inode.number
            self._write_dir_entries(parent, entries)
        position = inode.size if mode == "a" else 0
        return _Ext4Handle(self, inode, readable=False, position=position)


class _Ext4Handle(FileHandle):
    def __init__(
        self, fs: Ext4Filesystem, inode: _Inode, readable: bool, position: int
    ) -> None:
        self._fs = fs
        self._inode = inode
        self._readable = readable
        self._pos = position
        self._closed = False

    def _check(self) -> None:
        if self._closed:
            raise FilesystemError("handle is closed")

    def read(self, nbytes: int = -1) -> bytes:
        self._check()
        if not self._readable:
            raise FilesystemError("handle not opened for reading")
        if nbytes < 0:
            nbytes = self._inode.size - self._pos
        data = self._fs._read_range(self._inode, self._pos, nbytes)
        self._pos += len(data)
        return data

    def write(self, data: bytes) -> int:
        self._check()
        if self._readable:
            raise FilesystemError("handle not opened for writing")
        self._fs._write_range(self._inode, self._pos, data)
        self._pos += len(data)
        return len(data)

    def seek(self, offset: int) -> None:
        self._check()
        if offset < 0:
            raise FilesystemError("negative seek")
        self._pos = offset

    def tell(self) -> int:
        return self._pos

    def close(self) -> None:
        self._closed = True
