"""Thin-pool on-disk metadata.

The metadata device holds everything the paper's storage-layout figure puts
in the metadata part: the global block bitmap, each virtual volume's size,
and its virtual→physical block mappings (Fig. 3). The layout here is:

* block 0 — superblock: magic, version, active generation, payload length
  and SHA-256, transaction id;
* two *generation areas* (A/B) of equal size after the superblock, each
  starting with its own self-describing header block (magic, generation,
  transaction id, payload length and SHA-256) followed by the payload.

A commit writes the encoded payload into the **inactive** area (payload
first, as one extent, then the area header), flushes, and then atomically
flips the superblock to point at it (shadow paging). A crash between the
area write and the superblock write leaves the previous generation intact,
and because each area carries its own checksummed header, even a *torn
superblock* is recoverable: :meth:`MetadataStore.recover` picks the valid
area with the highest transaction id and repairs the superblock. The
crash-sweep tests drive every one of these interleavings.

The encoding is cached, so a commit costs what changed since the last one,
as in dm-thin's shadowed B-tree: each :class:`VolumeRecord` keeps its
packed segment and rebuilds it only after :meth:`VolumeRecord.map` or
:meth:`VolumeRecord.unmap` moved its version, and :class:`PoolMetadata`
reuses the whole payload and its SHA-256 when no volume and no bitmap bit
changed. The payload is hashed at most once per commit; the transaction id
is not part of it. Loaded or recovered metadata starts with no cache, so
its first encoding packs the decoded state in full.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from repro import obs
from repro.blockdev.device import BlockDevice, recovery_io
from repro.dm.thin.bitmap import Bitmap
from repro.errors import MetadataError, MetadataFullError

MAGIC = b"THINMETA"
VERSION = 3
AREA_MAGIC = b"THINAREA"

# superblock: magic(8) version(u32) generation(u32) payload_len(u64)
#             payload_sha(32) tx_id(u64) header_sha(32)
_SUPER = struct.Struct("<8sIIQ32sQ")
# area header: magic(8) version(u32) generation(u32) tx_id(u64)
#              payload_len(u64) payload_sha(32) header_sha(32)
_AREA = struct.Struct("<8sIIQQ32s")
_HEADER_DIGEST_LEN = 32
# payload: num_data_blocks(u64) bitmap num_volumes(u32), then per volume
#          vol_id(u32) virtual_blocks(u64) num_mappings(u64) and that many
#          (vblock, pblock) u64 pairs in ascending vblock order
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_VOLUME = struct.Struct("<IQQ")


class VolumeRecord:
    """In-memory record of one thin volume.

    The record owns its mapping mutations (:meth:`map`, :meth:`unmap`):
    :attr:`mappings` is a read-only view, so a write that goes round them
    raises instead of leaving a stale encoded segment.
    """

    __slots__ = (
        "_vol_id", "_virtual_blocks", "_map", "mappings", "version",
        "_segment", "_segment_version",
    )

    def __init__(
        self,
        vol_id: int,
        virtual_blocks: int,
        mappings: Optional[Mapping[int, int]] = None,
    ) -> None:
        self._vol_id = vol_id
        self._virtual_blocks = virtual_blocks
        self._map: Dict[int, int] = dict(mappings or {})
        self.mappings: Mapping[int, int] = MappingProxyType(self._map)
        #: bumped by every :meth:`map` and :meth:`unmap`
        self.version = 0
        self._segment = b""
        self._segment_version = -1

    @property
    def vol_id(self) -> int:
        return self._vol_id

    @property
    def virtual_blocks(self) -> int:
        return self._virtual_blocks

    @property
    def provisioned_blocks(self) -> int:
        return len(self._map)

    def map(self, vblock: int, pblock: int) -> None:
        """Point *vblock* at *pblock*."""
        self._map[vblock] = pblock
        self.version += 1

    def unmap(self, vblock: int) -> Optional[int]:
        """Drop *vblock*'s mapping; returns the freed pblock, or None."""
        pblock = self._map.pop(vblock, None)
        if pblock is not None:
            self.version += 1
        return pblock

    def segment(self) -> bytes:
        """This volume's payload segment, re-packed only after a mutation.

        Between mutations it is a read-only view into the last payload
        :meth:`PoolMetadata.encode` built.
        """
        if self._segment_version != self.version:
            mapping = self._map
            # every (vblock, pblock) pair in vblock order, in one pack;
            # sorting the int keys and interleaving by slice assignment
            # beats sorting (vblock, pblock) tuples
            vblocks = sorted(mapping)
            pairs = [0] * (2 * len(vblocks))
            pairs[0::2] = vblocks
            pairs[1::2] = map(mapping.__getitem__, vblocks)
            self._segment = _VOLUME.pack(
                self._vol_id, self._virtual_blocks, len(vblocks)
            ) + struct.pack(f"<{len(pairs)}Q", *pairs)
            self._segment_version = self.version
        return self._segment

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VolumeRecord):
            return NotImplemented
        return (
            self._vol_id == other._vol_id
            and self._virtual_blocks == other._virtual_blocks
            and self._map == other._map
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"VolumeRecord(vol_id={self._vol_id}, "
            f"virtual_blocks={self._virtual_blocks}, mappings={self._map!r})"
        )


@dataclass
class PoolMetadata:
    """The full in-memory metadata state of a thin pool."""

    num_data_blocks: int
    bitmap: Bitmap
    volumes: Dict[int, VolumeRecord]
    transaction_id: int = 0
    # (what the payload was built from, payload, SHA-256) of the last encoding
    _encoded: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def fresh(cls, num_data_blocks: int) -> "PoolMetadata":
        return cls(
            num_data_blocks=num_data_blocks,
            bitmap=Bitmap(num_data_blocks),
            volumes={},
            transaction_id=0,
        )

    # -- serialization -------------------------------------------------------

    def _source(self) -> tuple:
        # what the payload depends on; records compare by identity first,
        # so an unchanged pool costs one tuple per volume to check
        return (
            self.num_data_blocks,
            self.bitmap,
            self.bitmap.version,
            [(vid, rec, rec.version) for vid, rec in self.volumes.items()],
        )

    def encode(self) -> Tuple[bytes, bytes]:
        """The generation-area payload and its SHA-256.

        Reused as they are when nothing changed since the last encoding;
        otherwise only the changed volumes' segments are re-packed and the
        payload is hashed once.
        """
        source = self._source()
        cached = self._encoded
        if cached is not None and cached[0] == source:
            return cached[1], cached[2]
        volumes = self.volumes
        records = [volumes[vol_id] for vol_id in sorted(volumes)]
        segments = [record.segment() for record in records]
        payload = b"".join([
            _U64.pack(self.num_data_blocks),
            self.bitmap.to_bytes(),
            _U32.pack(len(volumes)),
            *segments,
        ])
        digest = hashlib.sha256(payload).digest()
        self._encoded = (source, payload, digest)
        # each segment becomes a view into the payload, so the pool holds
        # its encoded mappings once, not twice
        view = memoryview(payload)
        offset = len(payload) - sum(map(len, segments))
        for record, segment in zip(records, segments):
            record._segment = view[offset : offset + len(segment)]
            offset += len(segment)
        return payload, digest

    def to_payload(self) -> bytes:
        """Serialize to the generation-area payload format."""
        return self.encode()[0]

    @classmethod
    def from_payload(cls, payload: bytes) -> "PoolMetadata":
        """Decode *payload*, rejecting anything :meth:`encode` cannot write.

        Volume ids must be strictly ascending, each volume's vblocks
        strictly ascending and below its size, every pblock on the data
        device and marked in the bitmap, and no byte may follow the last
        volume.
        """
        view = memoryview(payload)
        size = len(view)

        def need(offset: int, n: int) -> None:
            if offset + n > size:
                raise MetadataError("metadata payload truncated")

        need(0, _U64.size)
        (num_data_blocks,) = _U64.unpack_from(view, 0)
        offset = _U64.size
        bitmap_len = (num_data_blocks + 7) // 8
        need(offset, bitmap_len + _U32.size)
        try:
            bitmap = Bitmap.from_bytes(
                num_data_blocks, bytes(view[offset : offset + bitmap_len])
            )
        except ValueError as exc:
            raise MetadataError(f"bad metadata bitmap: {exc}") from None
        offset += bitmap_len
        (num_volumes,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        volumes: Dict[int, VolumeRecord] = {}
        last_id = -1
        for _ in range(num_volumes):
            need(offset, _VOLUME.size)
            vol_id, virtual_blocks, count = _VOLUME.unpack_from(view, offset)
            offset += _VOLUME.size
            need(offset, 16 * count)
            if vol_id <= last_id:
                raise MetadataError(
                    f"volume {vol_id} after volume {last_id}: ids not "
                    "strictly ascending"
                )
            last_id = vol_id
            pairs = struct.unpack_from(f"<{2 * count}Q", view, offset)
            offset += 16 * count
            vblocks = pairs[0::2]
            pblocks = pairs[1::2]
            if any(a >= b for a, b in zip(vblocks, vblocks[1:])):
                raise MetadataError(
                    f"volume {vol_id}: vblocks not strictly ascending"
                )
            if vblocks and vblocks[-1] >= virtual_blocks:
                raise MetadataError(
                    f"volume {vol_id}: vblock {vblocks[-1]} beyond its "
                    f"{virtual_blocks} blocks"
                )
            for vblock, pblock in zip(vblocks, pblocks):
                if pblock >= num_data_blocks:
                    raise MetadataError(
                        f"mapping {vblock}->{pblock} beyond data device"
                    )
                if not bitmap.test(pblock):
                    raise MetadataError(
                        f"mapped block {pblock} not marked in bitmap"
                    )
            volumes[vol_id] = VolumeRecord(
                vol_id, virtual_blocks, dict(zip(vblocks, pblocks))
            )
        if offset != size:
            raise MetadataError(
                f"{size - offset} trailing bytes after the last volume"
            )
        return cls(
            num_data_blocks=num_data_blocks,
            bitmap=bitmap,
            volumes=volumes,
        )


@dataclass(frozen=True)
class MetadataRecovery:
    """Outcome report of :meth:`MetadataStore.recover`."""

    generation: int           # area the recovery settled on
    transaction_id: int       # its transaction id
    superblock_valid: bool    # the superblock survived the crash intact
    superblock_repaired: bool # recovery had to rewrite the superblock
    candidates: Tuple[int, ...]  # tx ids of all valid areas found


class MetadataStore:
    """Shadow-paged persistence of :class:`PoolMetadata` on a block device."""

    def __init__(self, device: BlockDevice) -> None:
        if device.num_blocks < 3:
            raise MetadataError("metadata device needs at least 3 blocks")
        self._device = device
        self._area_blocks = (device.num_blocks - 1) // 2
        self._area_starts = (1, 1 + self._area_blocks)

    @property
    def device(self) -> BlockDevice:
        return self._device

    @property
    def capacity_bytes(self) -> int:
        """Maximum payload size one generation area can hold.

        One block per area is reserved for the area's own header.
        """
        return max(0, self._area_blocks - 1) * self._device.block_size

    # -- superblock -----------------------------------------------------------

    def _seal(self, header: bytes) -> bytes:
        """*header* plus its SHA-256, padded to one block."""
        block = header + hashlib.sha256(header).digest()
        return block + b"\x00" * (self._device.block_size - len(block))

    def _pack_super(
        self, generation: int, payload_len: int, digest: bytes, tx_id: int
    ) -> bytes:
        return self._seal(
            _SUPER.pack(MAGIC, VERSION, generation, payload_len, digest, tx_id)
        )

    def _read_super(self) -> tuple:
        raw = self._device.read_block(0)
        header = raw[: _SUPER.size]
        digest = raw[_SUPER.size : _SUPER.size + _HEADER_DIGEST_LEN]
        magic, version, generation, payload_len, payload_sha, tx_id = _SUPER.unpack(
            header
        )
        if magic != MAGIC:
            raise MetadataError("bad metadata magic (device not formatted?)")
        if version != VERSION:
            raise MetadataError(f"unsupported metadata version {version}")
        if hashlib.sha256(header).digest() != digest:
            raise MetadataError("superblock checksum mismatch")
        if generation not in (0, 1):
            raise MetadataError(f"bad generation {generation}")
        return generation, payload_len, payload_sha, tx_id

    # -- area headers ---------------------------------------------------------

    def _pack_area_header(
        self, generation: int, payload_len: int, digest: bytes, tx_id: int
    ) -> bytes:
        return self._seal(
            _AREA.pack(
                AREA_MAGIC, VERSION, generation, tx_id, payload_len, digest
            )
        )

    def _read_area_header(self, generation: int) -> Tuple[int, int, bytes]:
        """Return (tx_id, payload_len, payload_sha) for one area's header."""
        raw = self._device.read_block(self._area_starts[generation])
        header = raw[: _AREA.size]
        digest = raw[_AREA.size : _AREA.size + _HEADER_DIGEST_LEN]
        magic, version, gen, tx_id, payload_len, payload_sha = _AREA.unpack(header)
        if magic != AREA_MAGIC:
            raise MetadataError(f"bad area magic in generation {generation}")
        if version != VERSION:
            raise MetadataError(f"unsupported area version {version}")
        if hashlib.sha256(header).digest() != digest:
            raise MetadataError(f"area header checksum mismatch (gen {generation})")
        if gen != generation:
            raise MetadataError(
                f"area header claims generation {gen}, stored in {generation}"
            )
        return tx_id, payload_len, payload_sha

    def _read_area_payload(self, generation: int, payload_len: int) -> bytes:
        start = self._area_starts[generation] + 1
        bs = self._device.block_size
        nblocks = -(-payload_len // bs) if payload_len else 0
        raw = b"".join(self._device.read_block(start + i) for i in range(nblocks))
        return raw[:payload_len]

    def _validate_area(
        self, generation: int
    ) -> Optional[Tuple[int, bytes, PoolMetadata]]:
        """Fully validate one generation area.

        Returns ``(tx_id, payload, metadata)`` if the area's header,
        payload checksum, and payload structure all check out, else None.
        """
        try:
            tx_id, payload_len, payload_sha = self._read_area_header(generation)
        except MetadataError:
            return None
        if payload_len > self.capacity_bytes:
            return None
        payload = self._read_area_payload(generation, payload_len)
        if hashlib.sha256(payload).digest() != payload_sha:
            return None
        try:
            metadata = PoolMetadata.from_payload(payload)
        except MetadataError:
            return None
        metadata.transaction_id = tx_id
        return tx_id, payload, metadata

    # -- public API -------------------------------------------------------------

    def format(self, metadata: PoolMetadata) -> None:
        """Write a fresh metadata layout (generation 0)."""
        self._write_generation(0, metadata, metadata.transaction_id)

    def commit(self, metadata: PoolMetadata) -> None:
        """Persist *metadata* into the inactive area and flip the superblock.

        The transaction id moves on only once the payload fits, so a
        :class:`MetadataFullError` leaves memory on the committed one.
        """
        generation, _, _, _ = self._read_super()
        self._write_generation(
            1 - generation, metadata, metadata.transaction_id + 1
        )

    def _write_generation(
        self, generation: int, metadata: PoolMetadata, tx_id: int
    ) -> None:
        payload, digest = metadata.encode()
        if len(payload) > self.capacity_bytes:
            raise MetadataFullError(
                f"metadata payload {len(payload)} bytes exceeds area capacity "
                f"{self.capacity_bytes}"
            )
        metadata.transaction_id = tx_id
        start = self._area_starts[generation]
        bs = self._device.block_size
        self._device.write_blocks(
            start + 1, payload + b"\x00" * (-len(payload) % bs)
        )
        self._device.write_block(
            start,
            self._pack_area_header(generation, len(payload), digest, tx_id),
        )
        obs.mark("thin.meta.area-written")
        # Barrier: the area (payload + header) must be durable before the
        # superblock names it, or a cut could flip to a half-written area.
        self._device.flush()
        self._device.write_block(
            0, self._pack_super(generation, len(payload), digest, tx_id)
        )
        obs.mark("thin.meta.superblock-written")
        self._device.flush()

    def load(self) -> PoolMetadata:
        """Load and verify the active generation."""
        generation, payload_len, payload_sha, tx_id = self._read_super()
        area_tx, area_len, area_sha = self._read_area_header(generation)
        if area_len != payload_len or area_sha != payload_sha or area_tx != tx_id:
            raise MetadataError(
                "superblock and area header disagree (torn commit?)"
            )
        payload = self._read_area_payload(generation, payload_len)
        if hashlib.sha256(payload).digest() != payload_sha:
            raise MetadataError("metadata payload checksum mismatch")
        metadata = PoolMetadata.from_payload(payload)
        metadata.transaction_id = tx_id
        return metadata

    def recover(self) -> Tuple[PoolMetadata, MetadataRecovery]:
        """Pick the newest intact generation after a crash, repairing block 0.

        Handles every crash interleaving of :meth:`commit`: a torn area
        write (the other area is still valid), a torn superblock (both
        areas carry their own checksummed headers, so the one with the
        highest transaction id wins), or a clean state (no repair needed).
        Raises :class:`MetadataError` only if *no* generation survived,
        which the two-phase write order makes unreachable for power cuts.
        """
        with recovery_io():
            super_state: Optional[tuple] = None
            try:
                super_state = self._read_super()
            except MetadataError:
                pass
            candidates = {}
            for generation in (0, 1):
                validated = self._validate_area(generation)
                if validated is not None:
                    candidates[generation] = validated
            if not candidates:
                raise MetadataError("no intact metadata generation to recover")
            generation = max(candidates, key=lambda g: candidates[g][0])
            tx_id, payload, metadata = candidates[generation]
            digest = hashlib.sha256(payload).digest()

            superblock_valid = super_state is not None
            in_sync = (
                superblock_valid
                and super_state[0] == generation
                and super_state[3] == tx_id
                and super_state[2] == digest
            )
            if not in_sync:
                self._device.write_block(
                    0, self._pack_super(generation, len(payload), digest, tx_id)
                )
                self._device.flush()
        return metadata, MetadataRecovery(
            generation=generation,
            transaction_id=tx_id,
            superblock_valid=superblock_valid,
            superblock_repaired=not in_sync,
            candidates=tuple(sorted(c[0] for c in candidates.values())),
        )
