"""Tests for the crypto substrate: the sector cipher, KDF, RNG models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockdev.clock import SimClock
from repro.crypto import (
    Blake2Ctr,
    FlashNoiseTRNG,
    JiffiesSource,
    Rng,
    constant_time_equal,
    derive_dummy_volume_index,
    derive_hidden_volume_index,
    pbkdf2,
)
from repro.errors import InvalidKeyError
from repro.util.stats import shannon_entropy
from tests.oracles import pbkdf2_reference


class TestSectorCiphers:
    @pytest.mark.parametrize("cls", [Blake2Ctr])
    def test_roundtrip(self, cls):
        cipher = cls(b"k" * 32)
        plaintext = bytes(range(256)) * 16  # 4096 bytes
        ct = cipher.encrypt_sector(42, plaintext)
        assert ct != plaintext
        assert cipher.decrypt_sector(42, ct) == plaintext

    @pytest.mark.parametrize("cls", [Blake2Ctr])
    def test_sector_number_matters(self, cls):
        cipher = cls(b"k" * 32)
        pt = b"\x00" * 512
        assert cipher.encrypt_sector(1, pt) != cipher.encrypt_sector(2, pt)

    @pytest.mark.parametrize("cls", [Blake2Ctr])
    def test_key_matters(self, cls):
        pt = b"\x00" * 512
        a = cls(b"a" * 32).encrypt_sector(0, pt)
        b = cls(b"b" * 32).encrypt_sector(0, pt)
        assert a != b

    @pytest.mark.parametrize("cls", [Blake2Ctr])
    def test_ciphertext_looks_random(self, cls):
        cipher = cls(b"k" * 32)
        ct = cipher.encrypt_sector(0, b"\x00" * 4096)
        assert shannon_entropy(ct) > 7.2

    def test_blake2_key_length_validation(self):
        with pytest.raises(InvalidKeyError):
            Blake2Ctr(b"tiny")
        with pytest.raises(InvalidKeyError):
            Blake2Ctr(b"x" * 100)

    @given(st.binary(min_size=16, max_size=64), st.integers(0, 2**40),
           st.binary(min_size=0, max_size=1024))
    @settings(max_examples=30, deadline=None)
    def test_blake2ctr_roundtrip_property(self, key, sector, data):
        cipher = Blake2Ctr(key)
        assert cipher.decrypt_sector(sector, cipher.encrypt_sector(sector, data)) == data

    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")


class TestKDF:
    def test_matches_reference_implementation(self):
        for iters in (1, 2, 100):
            for dklen in (16, 20, 32, 48):
                assert pbkdf2(b"pw", b"salt", iters, dklen) == pbkdf2_reference(
                    b"pw", b"salt", iters, dklen
                )

    def test_salt_changes_output(self):
        assert pbkdf2(b"pw", b"salt1", 10, 32) != pbkdf2(b"pw", b"salt2", 10, 32)

    def test_password_changes_output(self):
        assert pbkdf2(b"pw1", b"salt", 10, 32) != pbkdf2(b"pw2", b"salt", 10, 32)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            pbkdf2(b"pw", b"salt", 0, 32)
        with pytest.raises(ValueError):
            pbkdf2(b"pw", b"salt", 10, 0)

    def test_hidden_volume_index_range(self):
        for n in (2, 3, 8, 100):
            k = derive_hidden_volume_index(b"pw", b"salt" * 4, n)
            assert 2 <= k <= n

    def test_hidden_volume_index_deterministic(self):
        a = derive_hidden_volume_index(b"pw", b"salt" * 4, 8)
        b = derive_hidden_volume_index(b"pw", b"salt" * 4, 8)
        assert a == b

    def test_hidden_volume_index_salt_sensitivity(self):
        ks = {
            derive_hidden_volume_index(b"pw", bytes([s]) * 16, 50)
            for s in range(30)
        }
        assert len(ks) > 5  # different salts spread over volumes

    def test_hidden_index_requires_two_volumes(self):
        with pytest.raises(ValueError):
            derive_hidden_volume_index(b"pw", b"salt", 1)

    def test_dummy_volume_index(self):
        assert derive_dummy_volume_index(0, 8) == 2
        assert derive_dummy_volume_index(6, 8) == 8
        assert derive_dummy_volume_index(7, 8) == 2
        with pytest.raises(ValueError):
            derive_dummy_volume_index(3, 1)

    @given(st.integers(0, 2**63), st.integers(2, 64))
    def test_dummy_index_in_range(self, stored_rand, n):
        assert 2 <= derive_dummy_volume_index(stored_rand, n) <= n


class TestRng:
    def test_deterministic_given_seed(self):
        assert Rng(42).random_bytes(16) == Rng(42).random_bytes(16)

    def test_different_seeds_differ(self):
        assert Rng(1).random_bytes(16) != Rng(2).random_bytes(16)

    def test_fork_independent(self):
        base = Rng(7)
        a = base.fork("a").random_bytes(16)
        b = base.fork("b").random_bytes(16)
        assert a != b
        # fork is stable
        assert Rng(7).fork("a").random_bytes(16) == a

    def test_randint_inclusive_bounds(self):
        rng = Rng(0)
        values = {rng.randint(1, 3) for _ in range(100)}
        assert values == {1, 2, 3}

    def test_exponential_mean(self):
        rng = Rng(0)
        samples = [rng.exponential(2.0) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(0.5, rel=0.1)

    def test_exponential_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            Rng(0).exponential(0)

    def test_sample_and_shuffle(self):
        rng = Rng(3)
        picked = rng.sample(range(100), 5)
        assert len(set(picked)) == 5
        seq = list(range(10))
        rng.shuffle(seq)
        assert sorted(seq) == list(range(10))


class TestJiffies:
    def test_jiffies_follow_clock(self):
        clock = SimClock()
        source = JiffiesSource(clock, Rng(0))
        assert source.jiffies == 0
        clock.advance(2.5, "workload.idle")
        assert source.jiffies == 250

    def test_sample_nonnegative_and_varied(self):
        clock = SimClock()
        source = JiffiesSource(clock, Rng(0))
        values = {source.sample() for _ in range(10)}
        assert len(values) == 10
        assert all(v >= 0 for v in values)


class TestFlashTRNG:
    def test_extract_lengths(self):
        trng = FlashNoiseTRNG(Rng(0))
        assert len(trng.extract(10)) == 10
        assert len(trng.extract(100)) == 100

    def test_extract_int_bits(self):
        trng = FlashNoiseTRNG(Rng(0))
        for _ in range(50):
            assert 0 <= trng.extract_int(8) < 256

    def test_output_high_entropy(self):
        trng = FlashNoiseTRNG(Rng(0))
        assert shannon_entropy(trng.extract(4096)) > 7.5

    def test_successive_extracts_differ(self):
        trng = FlashNoiseTRNG(Rng(0))
        assert trng.extract(32) != trng.extract(32)


class TestBlake2CtrKeystream:
    """Pin the keystream construction so refactors can't silently change it.

    Chunk ``i`` of sector ``s`` must be
    ``BLAKE2b(key=key, digest_size=64, data=s_le64 || i_le32)`` — any
    optimization of the keystream generator (template hashers, counter
    caches, extent batching) has to reproduce these exact bytes.
    """

    KEY = bytes(range(32))

    def _reference_chunk(self, sector: int, counter: int) -> bytes:
        import hashlib as _hashlib

        return _hashlib.blake2b(
            sector.to_bytes(8, "little") + counter.to_bytes(4, "little"),
            key=self.KEY,
            digest_size=64,
        ).digest()

    def test_keystream_matches_reference_construction(self):
        cipher = Blake2Ctr(self.KEY)
        ks = cipher._keystream(5, 200)
        want = b"".join(self._reference_chunk(5, i) for i in range(4))[:200]
        assert ks == want

    def test_keystream_pinned_bytes(self):
        ks = Blake2Ctr(self.KEY)._keystream(5, 64)
        assert ks.hex() == (
            "4d92ad57c1865111188867ba67ff7152"
            "a8a15529078c36eed7844d8830dd7719"
            "83740e0fdc63060956eacb4818996f57"
            "e06cf0534cf8c8a095d9e62a2dd515db"
        )

    def test_encrypt_extent_matches_per_sector(self):
        cipher = Blake2Ctr(self.KEY)
        data = bytes(range(256)) * 32  # two 4 KiB units
        unit = 4096
        step = unit // 512
        per_sector = b"".join(
            cipher.encrypt_sector(40 + u * step, data[u * unit : (u + 1) * unit])
            for u in range(2)
        )
        assert cipher.encrypt_extent(40, data, unit) == per_sector
        assert cipher.decrypt_extent(40, per_sector, unit) == data

    def test_encrypt_extent_small_units(self):
        # 512-byte units (step of one sector): batched path, still exact
        cipher = Blake2Ctr(self.KEY)
        data = b"ab" * 1024  # four 512-byte units
        per_sector = b"".join(
            cipher.encrypt_sector(7 + u, data[u * 512 : (u + 1) * 512])
            for u in range(4)
        )
        assert cipher.encrypt_extent(7, data, 512) == per_sector

    def test_encrypt_extent_rejects_sub_sector_units(self):
        # units are addressed by the sector number of their first sector,
        # so units shorter than a sector would share one keystream (a
        # two-time pad); a unit must be a positive multiple of a sector
        cipher = Blake2Ctr(self.KEY)
        units = ((64, 256), (96, 192), (100, 400), (520, 1040), (0, 0))
        for unit, nbytes in units:
            with pytest.raises(ValueError):
                cipher.encrypt_extent(0, bytes(nbytes), unit)
            with pytest.raises(ValueError):
                cipher.decrypt_extent(0, bytes(nbytes), unit)

    def test_extent_length_validated(self):
        with pytest.raises(ValueError):
            Blake2Ctr(self.KEY).encrypt_extent(0, b"x" * 100, 4096)
