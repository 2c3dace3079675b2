"""Cryptographic substrate: the sector cipher, PBKDF2, randomness models."""

from repro.crypto.kdf import (
    ANDROID_KEY_LEN,
    ANDROID_PBKDF2_ITERATIONS,
    derive_dummy_volume_index,
    derive_hidden_volume_index,
    pbkdf2,
)
from repro.crypto.rng import KERNEL_HZ, FlashNoiseTRNG, JiffiesSource, Rng
from repro.crypto.stream import Blake2Ctr, constant_time_equal, xor_buffers

__all__ = [
    "ANDROID_KEY_LEN",
    "ANDROID_PBKDF2_ITERATIONS",
    "derive_dummy_volume_index",
    "derive_hidden_volume_index",
    "pbkdf2",
    "KERNEL_HZ",
    "FlashNoiseTRNG",
    "JiffiesSource",
    "Rng",
    "Blake2Ctr",
    "constant_time_equal",
    "xor_buffers",
]
