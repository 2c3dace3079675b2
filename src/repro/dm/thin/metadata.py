"""Thin-pool on-disk metadata.

The metadata device holds everything the paper's storage-layout figure puts
in the metadata part: the global block bitmap, each virtual volume's size,
and its virtual→physical block mappings (Fig. 3). The layout here is:

* block 0 — superblock: magic, version, active generation, payload length
  and SHA-256, transaction id;
* two *generation areas* (A/B) of equal size after the superblock, each
  starting with its own self-describing header block (magic, generation,
  transaction id, payload length and SHA-256) followed by the payload.

A commit serializes the whole metadata payload into the **inactive** area
(payload first, then the area header), flushes, and then atomically flips
the superblock to point at it (shadow paging). A crash between the area
write and the superblock write leaves the previous generation intact, and
because each area carries its own checksummed header, even a *torn
superblock* is recoverable: :meth:`MetadataStore.recover` picks the valid
area with the highest transaction id and repairs the superblock. The
crash-sweep tests drive every one of these interleavings.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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


@dataclass
class VolumeRecord:
    """In-memory record of one thin volume."""

    vol_id: int
    virtual_blocks: int
    mappings: Dict[int, int] = field(default_factory=dict)

    @property
    def provisioned_blocks(self) -> int:
        return len(self.mappings)


@dataclass
class PoolMetadata:
    """The full in-memory metadata state of a thin pool."""

    num_data_blocks: int
    bitmap: Bitmap
    volumes: Dict[int, VolumeRecord]
    transaction_id: int = 0

    @classmethod
    def fresh(cls, num_data_blocks: int) -> "PoolMetadata":
        return cls(
            num_data_blocks=num_data_blocks,
            bitmap=Bitmap(num_data_blocks),
            volumes={},
            transaction_id=0,
        )

    # -- serialization -------------------------------------------------------

    def to_payload(self) -> bytes:
        """Serialize to the generation-area payload format."""
        parts = [struct.pack("<Q", self.num_data_blocks)]
        parts.append(self.bitmap.to_bytes())
        parts.append(struct.pack("<I", len(self.volumes)))
        for vol_id in sorted(self.volumes):
            record = self.volumes[vol_id]
            parts.append(
                struct.pack("<IQQ", record.vol_id, record.virtual_blocks,
                            len(record.mappings))
            )
            # every (vblock, pblock) pair in vblock order, in one pack;
            # sorting the int keys and interleaving by slice assignment
            # beats sorting (vblock, pblock) tuples
            vblocks = sorted(record.mappings)
            pairs = [0] * (2 * len(vblocks))
            pairs[0::2] = vblocks
            pairs[1::2] = map(record.mappings.__getitem__, vblocks)
            parts.append(struct.pack(f"<{len(pairs)}Q", *pairs))
        return b"".join(parts)

    @classmethod
    def from_payload(cls, payload: bytes) -> "PoolMetadata":
        view = memoryview(payload)
        offset = 0

        def take(n: int) -> memoryview:
            nonlocal offset
            if offset + n > len(view):
                raise MetadataError("metadata payload truncated")
            chunk = view[offset : offset + n]
            offset += n
            return chunk

        (num_data_blocks,) = struct.unpack("<Q", take(8))
        bitmap_len = (num_data_blocks + 7) // 8
        bitmap = Bitmap.from_bytes(num_data_blocks, bytes(take(bitmap_len)))
        (num_volumes,) = struct.unpack("<I", take(4))
        volumes: Dict[int, VolumeRecord] = {}
        for _ in range(num_volumes):
            vol_id, virtual_blocks, num_mappings = struct.unpack("<IQQ", take(20))
            mappings: Dict[int, int] = {}
            for _ in range(num_mappings):
                vblock, pblock = struct.unpack("<QQ", take(16))
                if pblock >= num_data_blocks:
                    raise MetadataError(
                        f"mapping {vblock}->{pblock} beyond data device"
                    )
                if not bitmap.test(pblock):
                    raise MetadataError(
                        f"mapped block {pblock} not marked in bitmap"
                    )
                mappings[vblock] = pblock
            volumes[vol_id] = VolumeRecord(vol_id, virtual_blocks, mappings)
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

    def _pack_super(self, generation: int, payload: bytes, tx_id: int) -> bytes:
        header = _SUPER.pack(
            MAGIC,
            VERSION,
            generation,
            len(payload),
            hashlib.sha256(payload).digest(),
            tx_id,
        )
        digest = hashlib.sha256(header).digest()
        block = header + digest
        return block + b"\x00" * (self._device.block_size - len(block))

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
        self, generation: int, payload: bytes, tx_id: int
    ) -> bytes:
        header = _AREA.pack(
            AREA_MAGIC,
            VERSION,
            generation,
            tx_id,
            len(payload),
            hashlib.sha256(payload).digest(),
        )
        digest = hashlib.sha256(header).digest()
        block = header + digest
        return block + b"\x00" * (self._device.block_size - len(block))

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

    def is_formatted(self) -> bool:
        try:
            self._read_super()
            return True
        except MetadataError:
            return False

    def format(self, metadata: PoolMetadata) -> None:
        """Write a fresh metadata layout (generation 0)."""
        self._write_generation(0, metadata)

    def commit(self, metadata: PoolMetadata) -> None:
        """Persist *metadata* into the inactive area and flip the superblock."""
        generation, _, _, _ = self._read_super()
        metadata.transaction_id += 1
        self._write_generation(1 - generation, metadata)

    def _write_generation(self, generation: int, metadata: PoolMetadata) -> None:
        payload = metadata.to_payload()
        if len(payload) > self.capacity_bytes:
            raise MetadataFullError(
                f"metadata payload {len(payload)} bytes exceeds area capacity "
                f"{self.capacity_bytes}"
            )
        start = self._area_starts[generation]
        bs = self._device.block_size
        padded = payload + b"\x00" * (-len(payload) % bs)
        for i in range(len(padded) // bs):
            self._device.write_block(start + 1 + i, padded[i * bs : (i + 1) * bs])
        self._device.write_block(
            start,
            self._pack_area_header(generation, payload, metadata.transaction_id),
        )
        obs.mark("thin.meta.area-written")
        # Barrier: the area (payload + header) must be durable before the
        # superblock names it, or a cut could flip to a half-written area.
        self._device.flush()
        self._device.write_block(
            0, self._pack_super(generation, payload, metadata.transaction_id)
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

            superblock_valid = super_state is not None
            in_sync = (
                superblock_valid
                and super_state[0] == generation
                and super_state[3] == tx_id
                and super_state[2] == hashlib.sha256(payload).digest()
            )
            if not in_sync:
                self._device.write_block(
                    0, self._pack_super(generation, payload, tx_id)
                )
                self._device.flush()
        return metadata, MetadataRecovery(
            generation=generation,
            transaction_id=tx_id,
            superblock_valid=superblock_valid,
            superblock_repaired=not in_sync,
            candidates=tuple(sorted(c[0] for c in candidates.values())),
        )
