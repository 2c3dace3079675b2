"""Baseline: DEFY — a log-structured deniable FS for flash (NDSS'15, [33]).

DEFY builds deniability levels into YAFFS's log structure: all writes are
appended to the flash log, every page is protected by authenticated
encryption whose key schedule chains per level, and secure deletion /
cleaning continuously rewrites live data. Its published evaluation
(Table I) runs on a RAM-emulated nandsim device, where the cryptographic
work — not the medium — caps throughput at ~50 MB/s vs ~800 MB/s raw,
a ~94 % overhead.

This reproduction is a *stylized but mechanical* model: a real
log-structured block store (append head, logical→physical map, threshold
cleaning with live-page copying) whose per-page costs follow DEFY's
published design: ``CRYPTO_PASSES`` passes of AEAD work per page plus one
out-of-band metadata page per data page.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.blockdev.clock import SimClock
from repro.blockdev.device import BlockDevice, PerBlockDevice
from repro.crypto.rng import Rng
from repro.crypto.stream import Blake2Ctr
from repro.errors import BlockDeviceError, NoSpaceError

#: passes of per-byte AEAD work per page (DEFY's chained per-level keys)
CRYPTO_PASSES = 5
#: clean when at most this fraction of the log's pages is free ...
CLEAN_THRESHOLD_FRACTION = 0.10
#: ... and copy live pages forward until this fraction is free
CLEAN_TARGET_FRACTION = 0.25


class DefyDevice(PerBlockDevice):
    """Log-structured deniable store over a flash-like backing device.

    *num_blocks* logical blocks are stored in a log of
    ``backing.num_blocks`` pages; every logical write appends one data page
    and one metadata (OOB/commit) page, both costed with ``CRYPTO_PASSES``
    of per-byte cryptographic work. When fewer than ``clean_threshold``
    free pages remain, the cleaner copies live pages from the log tail
    until ``clean_target`` pages are free — DEFY's (and YAFFS's) write
    amplification.
    """

    def __init__(
        self,
        backing: BlockDevice,
        num_blocks: int,
        key: bytes,
        rng: Optional[Rng] = None,
        clock: Optional[SimClock] = None,
        crypto_byte_cost_s: float = 0.0,
    ) -> None:
        if num_blocks * 2 > backing.num_blocks:
            raise BlockDeviceError(
                "DEFY needs at least 2x spare pages for its log "
                f"({num_blocks} logical vs {backing.num_blocks} physical)"
            )
        super().__init__(num_blocks, backing.block_size)
        self._backing = backing
        self._pages = backing.num_blocks
        self._cipher = Blake2Ctr(key)
        self._rng = rng if rng is not None else Rng()
        self._clock = clock
        self._crypto_cost = crypto_byte_cost_s * CRYPTO_PASSES
        self._clean_threshold = max(2, int(self._pages * CLEAN_THRESHOLD_FRACTION))
        self._clean_target = max(4, int(self._pages * CLEAN_TARGET_FRACTION))
        self._map: Dict[int, int] = {}      # logical -> page
        self._owner: Dict[int, int] = {}    # page -> logical (live pages)
        self._meta_pages: set = set()       # OOB/commit pages awaiting erase
        self._head = 0                      # next append position
        self._free = self._pages
        self.stats_cleanings = 0
        self.stats_pages_copied = 0
        self.stats_metadata_pages = 0

    # -- internals -----------------------------------------------------------------

    def _charge_crypto(self, nbytes: int) -> None:
        if self._clock is not None and self._crypto_cost:
            self._clock.advance(
                nbytes * self._crypto_cost, "baseline.defy_crypto"
            )

    def _advance_head(self) -> int:
        """Find the next free page at/after the head (the log is a ring)."""
        for _ in range(self._pages):
            page = self._head
            self._head = (self._head + 1) % self._pages
            if page not in self._owner and page not in self._meta_pages:
                return page
        raise NoSpaceError("DEFY log has no free pages")  # pragma: no cover

    def _append(self, logical: int, data: bytes) -> None:
        if self._free < 2:
            raise NoSpaceError("DEFY log full")
        page = self._advance_head()
        self._charge_crypto(len(data))
        self._backing.write_block(page, self._cipher.encrypt_sector(page, data))
        old = self._map.get(logical)
        if old is not None:
            del self._owner[old]
            self._free += 1
        self._map[logical] = page
        self._owner[page] = logical
        self._free -= 1
        # OOB/commit metadata page accompanying every data page
        meta_page = self._advance_head()
        self._charge_crypto(self.block_size)
        self._backing.write_block(
            meta_page, self._rng.random_bytes(self.block_size)
        )
        self._meta_pages.add(meta_page)
        self._free -= 1
        self.stats_metadata_pages += 1

    def _clean(self) -> None:
        """Reclaim superseded metadata pages and compact live data."""
        self.stats_cleanings += 1
        # commit/OOB pages are superseded by the latest checkpoint: erase them
        self._free += len(self._meta_pages)
        self._meta_pages.clear()
        # then copy live data pages forward until enough space is free
        live = sorted(self._owner)
        for page in live:
            if self._free >= self._clean_target:
                break
            logical = self._owner[page]
            data = self._read_one(logical)
            del self._owner[page]
            del self._map[logical]
            self._free += 1
            self._append(logical, data)
            self.stats_pages_copied += 1

    # -- BlockDevice implementation ---------------------------------------------------

    def _write_one(self, block: int, data: bytes) -> None:
        if self._free <= self._clean_threshold:
            self._clean()
        self._append(block, data)

    def _read_one(self, block: int) -> bytes:
        page = self._map.get(block)
        if page is None:
            return b"\x00" * self.block_size
        raw = self._backing.read_block(page)
        self._charge_crypto(len(raw))
        return self._cipher.decrypt_sector(page, raw)

    def _flush(self) -> None:
        self._backing.flush()
