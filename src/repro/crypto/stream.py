"""Fast keyed stream cipher used for bulk volume encryption in simulation.

Pure-Python AES costs milliseconds per 4 KiB block, which would make the
paper-scale throughput benches take hours of wall time. The simulation's
deniability argument only needs an IND$-CPA-style cipher — ciphertext
indistinguishable from uniformly random bytes — so for bulk data we use a
BLAKE2b-based counter-mode keystream: keystream chunk ``i`` of sector ``s``
is ``BLAKE2b(key=key, data=sector||i)``. BLAKE2b is keyed-PRF secure, runs
at native speed from :mod:`hashlib`, and produces 64-byte chunks.

Both this cipher and AES-CTR implement :class:`SectorCipher`, so dm-crypt
can be instantiated with either (tests exercise both).
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from abc import ABC, abstractmethod

import numpy as np

from repro.crypto.aes import AES
from repro.errors import InvalidKeyError
from repro.util.units import SECTOR_SIZE

_CHUNK = 64  # BLAKE2b output size


@functools.lru_cache(maxsize=None)
def _chunk_counters(n: int) -> tuple:
    """Little-endian 4-byte chunk counters ``0..n-1``, shared by every
    :class:`Blake2Ctr` (counter i is the same bytes for any key). Each
    result is an immutable tuple, so concurrent ciphers can share it."""
    return tuple(i.to_bytes(4, "little") for i in range(n))


def xor_buffers(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length byte strings at array speed.

    Views both buffers as uint64 lanes (uint8 for lengths that are not a
    multiple of 8) and XORs them in one ``np.bitwise_xor`` — whole-extent
    payloads never round-trip through Python ints.
    """
    dtype = np.uint64 if len(a) % 8 == 0 else np.uint8
    return np.bitwise_xor(
        np.frombuffer(a, dtype=dtype), np.frombuffer(b, dtype=dtype)
    ).tobytes()


class SectorCipher(ABC):
    """Length-preserving encryption of numbered sectors, dm-crypt style."""

    @abstractmethod
    def encrypt_sector(self, sector: int, plaintext: bytes) -> bytes: ...

    @abstractmethod
    def decrypt_sector(self, sector: int, ciphertext: bytes) -> bytes: ...

    @property
    @abstractmethod
    def key(self) -> bytes: ...

    def encrypt_extent(self, sector: int, data: bytes, unit_bytes: int) -> bytes:
        """Encrypt consecutive *unit_bytes*-sized units starting at *sector*.

        Each unit is addressed by the sector number of its first 512-byte
        sector, exactly as if it were encrypted alone. Default loops over
        :meth:`encrypt_sector`; stream ciphers override with a one-pass
        keystream.
        """
        if len(data) % unit_bytes != 0:
            raise ValueError(
                f"extent length {len(data)} not a multiple of {unit_bytes}"
            )
        step = unit_bytes // SECTOR_SIZE
        return b"".join(
            self.encrypt_sector(
                sector + u * step, data[u * unit_bytes : (u + 1) * unit_bytes]
            )
            for u in range(len(data) // unit_bytes)
        )

    def decrypt_extent(self, sector: int, data: bytes, unit_bytes: int) -> bytes:
        """Decrypt consecutive units; the inverse of :meth:`encrypt_extent`."""
        if len(data) % unit_bytes != 0:
            raise ValueError(
                f"extent length {len(data)} not a multiple of {unit_bytes}"
            )
        step = unit_bytes // SECTOR_SIZE
        return b"".join(
            self.decrypt_sector(
                sector + u * step, data[u * unit_bytes : (u + 1) * unit_bytes]
            )
            for u in range(len(data) // unit_bytes)
        )


class Blake2Ctr(SectorCipher):
    """Counter-mode stream cipher keyed with BLAKE2b (fast bulk cipher).

    Keystream units are hashed through a pre-keyed template in one tight
    loop (:meth:`_generate_units`) shared by the per-sector and extent
    paths, and every XOR runs on uint64 lanes (:func:`xor_buffers`). The
    extent path also memoizes units in a per-cipher cache: the keystream
    depends only on ``(key, sector, counter)``, never on the payload, so
    rewriting an extent — journal commits, hot files, bench rounds —
    skips regeneration entirely. The per-sector path stays uncached. The
    keystream KATs pin both paths against an independent hashlib fixture.
    """

    #: Cached keystream units per cipher instance (4 KiB units -> 8 MiB
    #: ceiling); the cache is cleared wholesale when it would overflow.
    _CACHE_UNITS = 2048

    def __init__(self, key: bytes) -> None:
        if not 16 <= len(key) <= 64:
            raise InvalidKeyError(
                f"Blake2Ctr key must be 16..64 bytes, got {len(key)}"
            )
        self._key = key
        # Keyed hashers pay the key-block compression on construction;
        # copying a pre-keyed template skips that per chunk.
        self._template = hashlib.blake2b(key=key, digest_size=_CHUNK)
        self._ks_cache: dict = {}  # (sector, unit_bytes) -> keystream bytes

    @property
    def key(self) -> bytes:
        return self._key

    def _keystream(self, sector: int, nbytes: int) -> bytes:
        whole = -(-nbytes // _CHUNK) * _CHUNK
        return self._generate_units([sector], whole)[0][:nbytes]

    def encrypt_sector(self, sector: int, plaintext: bytes) -> bytes:
        ks = self._keystream(sector, len(plaintext))
        return xor_buffers(plaintext, ks)

    def decrypt_sector(self, sector: int, ciphertext: bytes) -> bytes:
        return self.encrypt_sector(sector, ciphertext)  # XOR is symmetric

    def encrypt_extent(self, sector: int, data: bytes, unit_bytes: int) -> bytes:
        """One-pass keystream for all units, XORed in a single operation.

        The keystream of unit ``u`` is exactly ``_keystream(sector + u*step,
        unit_bytes)``, served from the unit cache, so the concatenated-XOR
        result is bitwise identical to per-unit encryption.
        """
        if unit_bytes % _CHUNK != 0 or len(data) % unit_bytes != 0:
            return super().encrypt_extent(sector, data, unit_bytes)
        ks = self._extent_keystream(
            sector, len(data) // unit_bytes, unit_bytes
        )
        return xor_buffers(data, ks)

    def _extent_keystream(
        self, sector: int, nunits: int, unit_bytes: int
    ) -> bytes:
        """Keystream for *nunits* consecutive units, cache-backed."""
        step = unit_bytes // SECTOR_SIZE
        cache = self._ks_cache
        sectors = [sector + u * step for u in range(nunits)]
        parts = [cache.get((s, unit_bytes)) for s in sectors]
        missing = [s for s, ks in zip(sectors, parts) if ks is None]
        if missing:
            if len(cache) + len(missing) > self._CACHE_UNITS:
                cache.clear()
            fresh = iter(self._generate_units(missing, unit_bytes))
            for u, (s, ks) in enumerate(zip(sectors, parts)):
                if ks is None:
                    parts[u] = cache[(s, unit_bytes)] = next(fresh)
        return b"".join(parts)

    def _generate_units(self, sectors, unit_bytes: int) -> list:
        """Generate unit keystreams cold (shared pre-keyed template).

        Message construction is plain bytes concatenation: assembling the
        ``sector || counter`` blocks as a NumPy matrix costs more than it
        saves, because BLAKE2b compression dominates the cold path. The
        extent path's win is the unit cache and the uint64-lane XOR, not
        the hashing itself.
        """
        template_copy = self._template.copy
        counters = _chunk_counters(unit_bytes // _CHUNK)
        units = []
        for s in sectors:
            prefix = s.to_bytes(8, "little")
            chunks = []
            for counter in counters:
                h = template_copy()
                h.update(prefix + counter)
                chunks.append(h.digest())
            units.append(b"".join(chunks))
        return units

    def clear_keystream_cache(self) -> None:
        """Drop every memoized keystream unit (cold-path benchmarking)."""
        self._ks_cache.clear()

    def decrypt_extent(self, sector: int, data: bytes, unit_bytes: int) -> bytes:
        return self.encrypt_extent(sector, data, unit_bytes)


class AesCtrEssiv(SectorCipher):
    """AES in CTR mode with ESSIV-derived per-sector IVs (dm-crypt's scheme).

    The per-sector IV is ``AES_{sha256(key)}(sector)``, which becomes the
    initial counter block. This is the ``aes-ctr-essiv:sha256`` construction;
    slow (pure Python) but exact.
    """

    def __init__(self, key: bytes) -> None:
        self._cipher = AES(key)
        self._essiv = AES(hashlib.sha256(key).digest())
        self._key = key

    @property
    def key(self) -> bytes:
        return self._key

    def _iv(self, sector: int) -> bytes:
        return self._essiv.encrypt_block(sector.to_bytes(16, "little"))

    def encrypt_sector(self, sector: int, plaintext: bytes) -> bytes:
        iv = int.from_bytes(self._iv(sector), "big")
        out = bytearray()
        for i in range(0, len(plaintext), 16):
            counter = ((iv + i // 16) % (1 << 128)).to_bytes(16, "big")
            ks = self._cipher.encrypt_block(counter)
            chunk = plaintext[i : i + 16]
            out.extend(a ^ b for a, b in zip(chunk, ks))
        return bytes(out)

    def decrypt_sector(self, sector: int, ciphertext: bytes) -> bytes:
        return self.encrypt_sector(sector, ciphertext)


class AesCbcEssiv(SectorCipher):
    """AES-CBC with ESSIV IVs — the cipher Android 4.2's FDE actually used.

    Requires sector payloads to be multiples of 16 bytes (block I/O always
    is). Unlike CTR, a one-bit plaintext change rewrites the rest of the
    sector, which some tests use to distinguish mode behaviour.
    """

    def __init__(self, key: bytes) -> None:
        self._cipher = AES(key)
        self._essiv = AES(hashlib.sha256(key).digest())
        self._key = key

    @property
    def key(self) -> bytes:
        return self._key

    def _iv(self, sector: int) -> bytes:
        return self._essiv.encrypt_block(sector.to_bytes(16, "little"))

    def encrypt_sector(self, sector: int, plaintext: bytes) -> bytes:
        if len(plaintext) % 16 != 0:
            raise ValueError("CBC sector payload must be a multiple of 16")
        prev = self._iv(sector)
        out = bytearray()
        for i in range(0, len(plaintext), 16):
            block = bytes(a ^ b for a, b in zip(plaintext[i : i + 16], prev))
            prev = self._cipher.encrypt_block(block)
            out.extend(prev)
        return bytes(out)

    def decrypt_sector(self, sector: int, ciphertext: bytes) -> bytes:
        if len(ciphertext) % 16 != 0:
            raise ValueError("CBC sector payload must be a multiple of 16")
        prev = self._iv(sector)
        out = bytearray()
        for i in range(0, len(ciphertext), 16):
            block = ciphertext[i : i + 16]
            plain = self._cipher.decrypt_block(block)
            out.extend(a ^ b for a, b in zip(plain, prev))
            prev = block
        return bytes(out)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison for password/key verification paths."""
    return hmac.compare_digest(a, b)
