"""From-scratch RFC 2898 PBKDF2, the oracle for
:func:`repro.crypto.kdf.pbkdf2` (a thin ``hashlib.pbkdf2_hmac`` wrapper)."""

import hashlib
import hmac


def pbkdf2_reference(
    password: bytes,
    salt: bytes,
    iterations: int,
    dklen: int,
    hash_name: str = "sha1",
) -> bytes:
    """From-scratch RFC 2898 implementation, cross-checked against stdlib.

    Kept as an executable specification; tests assert it matches
    :func:`pbkdf2` on random inputs.
    """
    hlen = hashlib.new(hash_name).digest_size
    nblocks = -(-dklen // hlen)  # ceil division
    derived = bytearray()
    for i in range(1, nblocks + 1):
        u = hmac.new(password, salt + i.to_bytes(4, "big"), hash_name).digest()
        t = bytearray(u)
        for _ in range(iterations - 1):
            u = hmac.new(password, u, hash_name).digest()
            for j in range(hlen):
                t[j] ^= u[j]
        derived.extend(t)
    return bytes(derived[:dklen])
