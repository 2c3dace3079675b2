"""Property-based tests of the encrypted stack as a whole."""

from hypothesis import given, settings, strategies as st

from repro.blockdev import RAMBlockDevice
from repro.crypto import Rng
from repro.dm import create_crypt_device
from repro.dm.thin import ThinPool
from repro.util.stats import shannon_entropy

BS = 4096


@settings(max_examples=20, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=32),
    writes=st.lists(
        st.tuples(st.integers(0, 15), st.binary(min_size=1, max_size=64)),
        min_size=1,
        max_size=12,
    ),
)
def test_crypt_device_is_transparent(key, writes):
    """Whatever goes in through dm-crypt comes back out — any key, any data."""
    base = RAMBlockDevice(16)
    dev = create_crypt_device("c", key=key.ljust(32, b"\x01"), device=base)
    model = {}
    for index, seed_bytes in writes:
        payload = (seed_bytes * (BS // len(seed_bytes) + 1))[:BS]
        dev.write_block(index, payload)
        model[index] = payload
    for index, payload in model.items():
        assert dev.read_block(index) == payload
        # and the medium never holds the plaintext
        assert base.read_block(index) != payload


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_full_stack_ciphertext_entropy(seed):
    """crypt-over-thin: every provisioned block on the medium looks random."""
    md, dd = RAMBlockDevice(16), RAMBlockDevice(128)
    pool = ThinPool.format(md, dd, rng=Rng(seed))
    pool.create_thin(1, 64)
    dev = create_crypt_device("c", pool.get_thin(1),
                              key=Rng(seed).random_bytes(32))
    # highly structured plaintext
    for i in range(16):
        dev.write_block(i, bytes([i % 3]) * BS)
    for pblock in pool.volume_record(1).mappings.values():
        assert shannon_entropy(dd.peek(pblock)) > 7.2
