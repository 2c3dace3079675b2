"""Baseline: HIVE — hidden volumes via write-only ORAM (CCS'14, ref. [15]).

HIVE defends against an adversary who may snapshot after *every* write by
making each write oblivious: a logical write lands in one of ``k`` randomly
chosen physical slots, and every drawn slot is rewritten with fresh
randomized ciphertext so the adversary cannot tell which slot carries data.
The price is the enormous I/O amplification the paper's Table I shows
(>99 % throughput loss on an SSD).

This is a real write-only ORAM implementation (position map, reverse map,
per-slot IVs, stash with opportunistic eviction), not a cost model: the
amplification emerges from the extra physical I/O it performs on the
simulated device.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Optional

from repro.blockdev.clock import SimClock
from repro.blockdev.device import BlockDevice, PerBlockDevice
from repro.crypto.rng import Rng
from repro.crypto.stream import xor_buffers
from repro.errors import BlockDeviceError

_IV_LEN = 16
#: physical slots per logical block
SPARE_FACTOR = 3
#: stashed blocks beyond this many raise ``BlockDeviceError``
MAX_STASH = 4096


class WriteOnlyORAMDevice(PerBlockDevice):
    """A logical block device whose writes are oblivious.

    Physical layout: ``SPARE_FACTOR * num_blocks`` slots on the backing
    device, plus one metadata block for (modeled) position-map persistence.
    Each logical write:

    1. draws ``k`` distinct random physical slots and reads all of them;
    2. places the block in a free slot among them (or in the stash when all
       ``k`` are occupied), opportunistically evicting stashed blocks into
       the remaining free slots;
    3. rewrites **every** drawn slot — occupied slots re-encrypted under a
       fresh IV, empty slots refreshed with randomness — so all ``k``
       change indistinguishably;
    4. writes one metadata block (position-map persistence).

    Reads cost a single physical read; write-only ORAM does not hide reads.
    """

    def __init__(
        self,
        backing: BlockDevice,
        num_blocks: int,
        key: bytes,
        rng: Optional[Rng] = None,
        k: int = 3,
        clock: Optional[SimClock] = None,
        crypto_byte_cost_s: float = 0.0,
    ) -> None:
        slots = num_blocks * SPARE_FACTOR
        if slots + 1 > backing.num_blocks:
            raise BlockDeviceError(
                f"backing device too small: need {slots + 1} blocks, "
                f"have {backing.num_blocks}"
            )
        if k < 2:
            raise ValueError("write-only ORAM needs k >= 2")
        super().__init__(num_blocks, backing.block_size)
        self._backing = backing
        self._slots = slots
        self._k = k
        self._rng = rng if rng is not None else Rng()
        self._key = key
        self._clock = clock
        self._crypto_cost = crypto_byte_cost_s
        self._meta_slot = slots
        self._position: Dict[int, int] = {}   # logical -> slot
        self._reverse: Dict[int, int] = {}    # slot -> logical
        self._iv: Dict[int, bytes] = {}       # slot -> current IV
        self._stash: "OrderedDict[int, bytes]" = OrderedDict()
        self.stats_physical_writes = 0
        self.stats_physical_reads = 0
        self.stats_stash_peak = 0

    # -- crypto ------------------------------------------------------------------

    def _keystream(self, slot: int, iv: bytes, nbytes: int) -> bytes:
        chunks = []
        prefix = slot.to_bytes(8, "little") + iv
        for i in range((nbytes + 63) // 64):
            chunks.append(
                hashlib.blake2b(
                    prefix + i.to_bytes(4, "little"),
                    key=self._key, digest_size=64,
                ).digest()
            )
        return b"".join(chunks)[:nbytes]

    def _charge_crypto(self, nbytes: int) -> None:
        if self._clock is not None and self._crypto_cost:
            self._clock.advance(
                nbytes * self._crypto_cost, "baseline.oram_crypto"
            )

    def _encrypt_to_slot(self, slot: int, plaintext: bytes) -> bytes:
        iv = self._rng.random_bytes(_IV_LEN)
        self._iv[slot] = iv
        ks = self._keystream(slot, iv, len(plaintext))
        self._charge_crypto(len(plaintext))
        return xor_buffers(plaintext, ks)

    def _decrypt_from_slot(self, slot: int, ciphertext: bytes) -> bytes:
        iv = self._iv[slot]
        ks = self._keystream(slot, iv, len(ciphertext))
        self._charge_crypto(len(ciphertext))
        return xor_buffers(ciphertext, ks)

    # -- physical I/O ---------------------------------------------------------------

    def _phys_write(self, slot: int, payload: bytes) -> None:
        self._backing.write_block(slot, payload)
        self.stats_physical_writes += 1

    def _phys_read(self, slot: int) -> bytes:
        self.stats_physical_reads += 1
        return self._backing.read_block(slot)

    # -- BlockDevice implementation -----------------------------------------------------

    def _write_one(self, block: int, data: bytes) -> None:
        candidates = self._rng.sample(range(self._slots), self._k)
        plaintexts: Dict[int, bytes] = {}
        for slot in candidates:
            raw = self._phys_read(slot)
            if slot in self._reverse:
                plaintexts[slot] = self._decrypt_from_slot(slot, raw)
        # queue: the incoming block first, then stashed blocks
        pending: "OrderedDict[int, bytes]" = OrderedDict()
        pending[block] = data
        for logical, plaintext in self._stash.items():
            if logical != block:
                pending[logical] = plaintext
        self._stash.clear()
        for slot in candidates:
            occupant = self._reverse.get(slot)
            if occupant is not None and occupant not in pending:
                # live block: rewrite re-encrypted under a fresh IV
                self._phys_write(
                    slot, self._encrypt_to_slot(slot, plaintexts[slot])
                )
                continue
            if occupant is not None:
                # occupant is being superseded by a pending write; free it
                del self._reverse[slot]
                del self._position[occupant]
            if pending:
                logical, plaintext = pending.popitem(last=False)
                old = self._position.pop(logical, None)
                if old is not None:
                    del self._reverse[old]
                self._position[logical] = slot
                self._reverse[slot] = logical
                self._phys_write(slot, self._encrypt_to_slot(slot, plaintext))
            else:
                self._iv.pop(slot, None)
                self._phys_write(slot, self._rng.random_bytes(self.block_size))
        # whatever could not be placed goes (back) to the stash
        for logical, plaintext in pending.items():
            self._stash[logical] = plaintext
        if len(self._stash) > MAX_STASH:
            raise BlockDeviceError("ORAM stash overflow")
        self.stats_stash_peak = max(self.stats_stash_peak, len(self._stash))
        # position-map persistence
        self._phys_write(self._meta_slot, self._rng.random_bytes(self.block_size))

    def _read_one(self, block: int) -> bytes:
        if block in self._stash:
            return self._stash[block]
        slot = self._position.get(block)
        if slot is None:
            return b"\x00" * self.block_size
        return self._decrypt_from_slot(slot, self._phys_read(slot))

    def _flush(self) -> None:
        self._backing.flush()

    @property
    def stash_size(self) -> int:
        return len(self._stash)
