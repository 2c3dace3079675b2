"""Big-int XOR, the oracle for :func:`repro.crypto.stream.xor_buffers`."""


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings through Python ints."""
    n = len(a)
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        n, "little"
    )
