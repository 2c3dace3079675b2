"""Cryptographic substrate: AES, sector ciphers, PBKDF2, randomness models."""

from repro.crypto.aes import AES
from repro.crypto.kdf import (
    ANDROID_KEY_LEN,
    ANDROID_PBKDF2_ITERATIONS,
    derive_dummy_volume_index,
    derive_hidden_volume_index,
    pbkdf2,
    pbkdf2_reference,
)
from repro.crypto.rng import KERNEL_HZ, FlashNoiseTRNG, JiffiesSource, Rng
from repro.crypto.stream import (
    AesCbcEssiv,
    AesCtrEssiv,
    Blake2Ctr,
    SectorCipher,
    constant_time_equal,
    xor_buffers,
)

__all__ = [
    "AES",
    "ANDROID_KEY_LEN",
    "ANDROID_PBKDF2_ITERATIONS",
    "derive_dummy_volume_index",
    "derive_hidden_volume_index",
    "pbkdf2",
    "pbkdf2_reference",
    "KERNEL_HZ",
    "FlashNoiseTRNG",
    "JiffiesSource",
    "Rng",
    "AesCbcEssiv",
    "AesCtrEssiv",
    "Blake2Ctr",
    "SectorCipher",
    "constant_time_equal",
    "xor_buffers",
]
