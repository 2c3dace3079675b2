"""The keyed stream cipher used for all volume encryption in simulation.

The simulation's deniability argument only needs an IND$-CPA-style
cipher: ciphertext indistinguishable from uniformly random bytes. So
every dm-crypt device, the footer key wrap and the verifier use a
BLAKE2b-based counter-mode keystream: keystream chunk ``i`` of sector
``s`` is ``BLAKE2b(key=key, data=sector||i)``. BLAKE2b is keyed-PRF
secure, runs at native speed from :mod:`hashlib`, and produces 64-byte
chunks. The Nexus 4's AES is modelled only as a per-byte clock charge
(:data:`repro.dm.crypt.NEXUS4_CRYPTO_BYTE_COST_S`).
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import itertools

import numpy as np

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


class Blake2Ctr:
    """Counter-mode stream cipher keyed with BLAKE2b, the one sector cipher.

    Keystream units are hashed cold in one tight loop
    (:meth:`_generate_units`) shared by the per-sector and extent paths:
    a unit's ``key || sector`` prefix state is compressed once, and each
    64-byte chunk then costs one compression of its counter block. The
    extent path also memoizes units in a per-cipher cache: the keystream
    depends only on ``(key, sector, counter)``, never on the payload, so
    rewriting an extent — journal commits, hot files, bench rounds —
    skips regeneration entirely. The cache is first-in first-out and
    scan-resistant: a small extent's cold units always enter it, and
    overflow evicts only the oldest-inserted units, while a streaming
    extent (more than :attr:`_STREAM_UNITS` units) fills only free room
    and evicts nothing. So one large write does not flush the small hot
    units, and reading a large file back finds the keystream of the part
    that fit. The extent
    keystream is assembled in one buffer and the payload XORed into it
    in place. The per-sector path stays uncached. The keystream KATs pin
    both paths against an independent hashlib fixture.
    """

    #: Cached keystream units per cipher instance (4 KiB units -> 8 MiB
    #: ceiling); overflow evicts the oldest-inserted units first.
    _CACHE_UNITS = 2048
    #: Extents longer than this (1 MiB of 4 KiB units) are streaming:
    #: they use cache hits but admit cold units only into free room.
    _STREAM_UNITS = _CACHE_UNITS // 8

    def __init__(self, key: bytes) -> None:
        if not 16 <= len(key) <= 64:
            raise InvalidKeyError(
                f"Blake2Ctr key must be 16..64 bytes, got {len(key)}"
            )
        # Keyed hashers pay the key-block compression on construction;
        # copying a pre-keyed template skips that per unit.
        self._template = hashlib.blake2b(key=key, digest_size=_CHUNK)
        self._ks_cache: dict = {}  # (sector, unit_bytes) -> keystream bytes

    def _keystream(self, sector: int, nbytes: int) -> bytes:
        whole = -(-nbytes // _CHUNK) * _CHUNK
        return self._generate_units([sector], whole)[0][:nbytes]

    def encrypt_sector(self, sector: int, plaintext: bytes) -> bytes:
        ks = self._keystream(sector, len(plaintext))
        return xor_buffers(plaintext, ks)

    def decrypt_sector(self, sector: int, ciphertext: bytes) -> bytes:
        return self.encrypt_sector(sector, ciphertext)  # XOR is symmetric

    def encrypt_extent(self, sector: int, data: bytes, unit_bytes: int) -> bytes:
        """Encrypt consecutive *unit_bytes*-sized units starting at *sector*.

        Each unit is addressed by the sector number of its first 512-byte
        sector: the keystream of unit ``u`` is exactly
        ``_keystream(sector + u*step, unit_bytes)``, served from the unit
        cache into one buffer that the payload is XORed into in place, so
        the result is bitwise identical to per-unit :meth:`encrypt_sector`.
        A unit shorter than a sector would share its sector number, and
        so its keystream, with its neighbour; *unit_bytes* must be a
        positive multiple of ``SECTOR_SIZE``.
        """
        if unit_bytes <= 0 or unit_bytes % SECTOR_SIZE != 0:
            raise ValueError(
                f"unit of {unit_bytes} bytes is not a positive multiple of "
                f"the {SECTOR_SIZE}-byte sector"
            )
        if len(data) % unit_bytes != 0:
            raise ValueError(
                f"extent length {len(data)} not a multiple of {unit_bytes}"
            )
        buf = self._extent_keystream(
            sector, len(data) // unit_bytes, unit_bytes
        )
        # unit_bytes is a multiple of 512, so the extent is whole uint64s
        lanes = np.frombuffer(buf, dtype=np.uint64)
        np.bitwise_xor(lanes, np.frombuffer(data, dtype=np.uint64), out=lanes)
        return bytes(buf)

    def _extent_keystream(
        self, sector: int, nunits: int, unit_bytes: int
    ) -> bytearray:
        """Keystream for *nunits* consecutive units in one fresh buffer.

        Cache hits are served for any extent and do not reorder the
        cache. Cold units of an extent of at most :attr:`_STREAM_UNITS`
        units all enter it, evicting just enough of the oldest-inserted
        entries to make room; a streaming extent's cold units enter only
        the free room and evict nothing.
        """
        step = unit_bytes // SECTOR_SIZE
        cache = self._ks_cache
        sectors = [sector + u * step for u in range(nunits)]
        parts = [cache.get((s, unit_bytes)) for s in sectors]
        missing = [s for s, ks in zip(sectors, parts) if ks is None]
        if missing:
            fresh = self._generate_units(missing, unit_bytes)
            if nunits > self._STREAM_UNITS:
                admit = self._CACHE_UNITS - len(cache)
            else:
                admit = len(missing)
                excess = len(cache) + admit - self._CACHE_UNITS
                if excess > 0:
                    for oldest in list(itertools.islice(cache, excess)):
                        del cache[oldest]
            cache.update(zip([(s, unit_bytes) for s in missing[:admit]], fresh))
            units = iter(fresh)
            parts = [next(units) if ks is None else ks for ks in parts]
        return bytearray().join(parts)

    def _generate_units(self, sectors, unit_bytes: int) -> list:
        """Generate unit keystreams cold (shared pre-keyed template).

        BLAKE2b is a streaming hash, so absorbing ``sector`` and then
        ``counter`` hashes the same message as ``sector || counter``.
        Each unit copies the template and absorbs its 8-byte sector
        once, which compresses the key block; each chunk copies that
        prefix state and absorbs only its 4-byte counter, so it costs
        one compression, not two.
        """
        template_copy = self._template.copy
        counters = _chunk_counters(unit_bytes // _CHUNK)
        units = []
        for s in sectors:
            prefix = template_copy()
            prefix.update(s.to_bytes(8, "little"))
            prefix_copy = prefix.copy
            chunks = []
            for counter in counters:
                h = prefix_copy()
                h.update(counter)
                chunks.append(h.digest())
            units.append(b"".join(chunks))
        return units

    def clear_keystream_cache(self) -> None:
        """Drop every memoized keystream unit (cold-path benchmarking)."""
        self._ks_cache.clear()

    def decrypt_extent(self, sector: int, data: bytes, unit_bytes: int) -> bytes:
        """Decrypt consecutive units; the inverse of :meth:`encrypt_extent`."""
        return self.encrypt_extent(sector, data, unit_bytes)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison for password/key verification paths."""
    return hmac.compare_digest(a, b)
