"""Key derivation, exactly as Android 4.2 FDE and MobiCeal use it.

Android derives the footer key from the user password with PBKDF2-HMAC-SHA1
(RFC 2898) and a random salt stored in the crypto footer. MobiCeal reuses the
same machinery for the decoy and hidden passwords, and additionally derives
the hidden volume *index* ``k = (PBKDF2(pwd, salt) mod (n-1)) + 2``
(Sec. IV-C of the paper).
"""

from __future__ import annotations

import hashlib

#: Android 4.2's FDE iteration count for PBKDF2 (cryptfs.c).
ANDROID_PBKDF2_ITERATIONS = 2000

#: Android 4.2's derived key+IV length: 16-byte key + 16-byte IV.
ANDROID_KEY_LEN = 32


def pbkdf2(
    password: bytes,
    salt: bytes,
    iterations: int = ANDROID_PBKDF2_ITERATIONS,
    dklen: int = ANDROID_KEY_LEN,
) -> bytes:
    """PBKDF2-HMAC-SHA1 as used by Android's cryptfs. Thin stdlib wrapper."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if dklen < 1:
        raise ValueError("dklen must be >= 1")
    return hashlib.pbkdf2_hmac("sha1", password, salt, iterations, dklen)


def derive_hidden_volume_index(
    password: bytes, salt: bytes, num_volumes: int, iterations: int = ANDROID_PBKDF2_ITERATIONS
) -> int:
    """MobiCeal's hidden-volume index: ``k = (H(pwd||salt) mod (n-1)) + 2``.

    *num_volumes* is ``n``, the total number of thin volumes; valid results
    are in ``[2, n]`` (volume 1 is always the public volume). H is PBKDF2
    per the paper.
    """
    if num_volumes < 2:
        raise ValueError("need at least 2 volumes for a hidden volume")
    digest = pbkdf2(password, salt, iterations=iterations, dklen=8)
    return (int.from_bytes(digest, "big") % (num_volumes - 1)) + 2


def derive_dummy_volume_index(stored_rand: int, num_volumes: int) -> int:
    """Volume a dummy write is scattered to: ``j = (stored_rand mod (n-1)) + 2``."""
    if num_volumes < 2:
        raise ValueError("need at least 2 volumes for dummy volumes")
    return (stored_rand % (num_volumes - 1)) + 2
