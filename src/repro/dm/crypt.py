"""dm-crypt: the transparent block-encryption target.

Android FDE layers a dm-crypt device over the userdata partition; MobiCeal
layers it over each thin volume. The target encrypts each block with a
:class:`~repro.crypto.stream.Blake2Ctr` using the (512-byte-granular)
sector number of the block's first sector as IV input, matching dm-crypt's
addressing.

The target also charges a CPU cost per encrypted byte to the simulated
clock, which is how the crypto overhead of the paper's Fig. 4 / Table I
materializes in the benches.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.blockdev.device import BlockDevice, ExtentCosts
from repro.blockdev.clock import SimClock
from repro.crypto.stream import Blake2Ctr
from repro.dm.core import Target, single_target_device
from repro.util.units import SECTOR_SIZE

#: Simulated AES cost on the Nexus 4's Krait cores (no AES-NI): ~160 MB/s.
NEXUS4_CRYPTO_BYTE_COST_S = 1.0 / (160 * 1024 * 1024)


class CryptTarget(Target):
    """Encrypt/decrypt all I/O to a lower device."""

    def __init__(
        self,
        device: BlockDevice,
        cipher: Blake2Ctr,
        clock: Optional[SimClock] = None,
        crypto_byte_cost_s: float = 0.0,
    ) -> None:
        super().__init__(device.num_blocks, device.block_size)
        self._device = device
        self._cipher = cipher
        self._clock = clock
        self._byte_cost = crypto_byte_cost_s
        self._sectors_per_block = device.block_size // SECTOR_SIZE

    @property
    def cipher(self) -> Blake2Ctr:
        return self._cipher

    def _sector_of(self, block: int) -> int:
        return block * self._sectors_per_block

    def read_extent(
        self, block: int, count: int, costs: Optional[ExtentCosts] = None
    ) -> bytes:
        # The per-block path charges the CPU cost *after* each block's data
        # arrives (decryption waits on the device), so the charge is
        # scheduled as a post-cost replayed by the leaf device per block.
        # clone: the schedule handed down must not leak back into the
        # caller's (a multi-segment table reuses its costs object)
        costs = ExtentCosts() if costs is None else costs.clone()
        bs = self.block_size
        if self._clock is not None and self._byte_cost:
            costs.add_post(self._clock, bs * self._byte_cost, "crypt.cpu")
        # counters tick per block via the schedule so a fault raised
        # mid-extent leaves them exactly where the per-block path would
        costs.add_post_call(
            lambda: obs.counter_add("crypt.bytes_decrypted", bs)
        )
        ciphertext = self._device.read_blocks(block, count, costs)
        return self._cipher.decrypt_extent(
            self._sector_of(block), ciphertext, bs
        )

    def write_extent(
        self, block: int, data: bytes, costs: Optional[ExtentCosts] = None
    ) -> None:
        costs = ExtentCosts() if costs is None else costs.clone()
        bs = self.block_size
        if self._clock is not None and self._byte_cost:
            costs.add_pre(self._clock, bs * self._byte_cost, "crypt.cpu")
        costs.add_pre_call(
            lambda: obs.counter_add("crypt.bytes_encrypted", bs)
        )
        ciphertext = self._cipher.encrypt_extent(
            self._sector_of(block), data, bs
        )
        self._device.write_blocks(block, ciphertext, costs)

    def discard(self, block: int) -> None:
        self._device.discard(block)

    def flush(self) -> None:
        self._device.flush()


def create_crypt_device(
    name: str,
    device: BlockDevice,
    key: bytes,
    clock: Optional[SimClock] = None,
    crypto_byte_cost_s: float = 0.0,
):
    """Create an encrypted dm device over *device* (``cryptsetup`` analog)."""
    target = CryptTarget(
        device,
        Blake2Ctr(key),
        clock=clock,
        crypto_byte_cost_s=crypto_byte_cost_s,
    )
    return single_target_device(name, target)
