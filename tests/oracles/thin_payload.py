"""Full re-serialization, the oracle for the thin pool's cached encoding.

:meth:`repro.dm.thin.metadata.PoolMetadata.encode` re-packs only what
changed since its last call and reuses the rest. This packs every byte of
the generation-area payload from scratch on each call: the bitmap, then
each volume in ascending id order as ``<IQQ`` (id, virtual size, mapping
count) followed by its ``(vblock, pblock)`` pairs in ascending vblock
order, all ``<Q``.
"""

import hashlib
import struct
from typing import Tuple


def full_payload(metadata) -> bytes:
    parts = [struct.pack("<Q", metadata.num_data_blocks)]
    parts.append(metadata.bitmap.to_bytes())
    parts.append(struct.pack("<I", len(metadata.volumes)))
    for vol_id in sorted(metadata.volumes):
        record = metadata.volumes[vol_id]
        parts.append(
            struct.pack("<IQQ", record.vol_id, record.virtual_blocks,
                        len(record.mappings))
        )
        vblocks = sorted(record.mappings)
        pairs = [0] * (2 * len(vblocks))
        pairs[0::2] = vblocks
        pairs[1::2] = map(record.mappings.__getitem__, vblocks)
        parts.append(struct.pack(f"<{len(pairs)}Q", *pairs))
    return b"".join(parts)


def full_encoding(metadata) -> Tuple[bytes, bytes]:
    """``(payload, SHA-256)`` packed and hashed from scratch."""
    payload = full_payload(metadata)
    return payload, hashlib.sha256(payload).digest()
