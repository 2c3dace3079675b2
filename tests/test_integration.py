"""Cross-layer integration tests: the full stack in unusual combinations."""

import pytest

from repro.android import Phone
from repro.blockdev import RAMBlockDevice
from repro.core import Mode, MobiCealConfig, MobiCealSystem
from repro.crypto import Rng
from repro.dm import DMDevice, LinearTarget, TableEntry, create_crypt_device
from repro.dm.thin import ThinPool

DECOY, HIDDEN = "decoy", "hidden"


class TestPhoneUserdata:
    """A bring-your-own userdata medium must match the profile's geometry."""

    def test_block_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Phone(userdata_device=RAMBlockDevice(4096, block_size=512))


class TestThinTargetInDMTables:
    """Thin volumes compose into dm tables through linear targets."""

    def test_thin_target_in_table(self):
        md, dd = RAMBlockDevice(16), RAMBlockDevice(256)
        pool = ThinPool.format(md, dd, rng=Rng(0))
        pool.create_thin(1, 64)
        pool.create_thin(2, 64)
        # a striped-looking device: first half volume 1, second half volume 2
        dev = DMDevice(
            "combo",
            [
                TableEntry(0, 64, LinearTarget(pool.get_thin(1), 0, 64)),
                TableEntry(64, 64, LinearTarget(pool.get_thin(2), 0, 64)),
            ],
            4096,
        )
        dev.write_block(0, b"\x01" * 4096)
        dev.write_block(100, b"\x02" * 4096)
        assert pool.get_thin(1).read_block(0) == b"\x01" * 4096
        assert pool.get_thin(2).read_block(36) == b"\x02" * 4096

    def test_crypt_over_linear_over_thin(self):
        """Three dm layers stacked: crypt -> linear window -> thin volume."""
        md, dd = RAMBlockDevice(16), RAMBlockDevice(256)
        pool = ThinPool.format(md, dd, rng=Rng(1))
        pool.create_thin(1, 128)
        thin = pool.get_thin(1)
        window = DMDevice(
            "window",
            [TableEntry(0, 64, LinearTarget(thin, 32, 64))],
            4096,
        )
        crypt = create_crypt_device("sec", window, key=b"q" * 32)
        crypt.write_block(0, b"secret " * 585 + b"x")
        # the data physically lives at thin vblock 32, encrypted
        raw = thin.read_block(32)
        assert b"secret" not in raw
        assert crypt.read_block(0)[:7] == b"secret "


class TestMultiUserScenario:
    """Two phones, same design, different seeds: no cross-determinism."""

    def test_phones_produce_different_layouts(self):
        layouts = []
        for seed in (1, 2):
            phone = Phone(seed=seed, userdata_blocks=4096)
            system = MobiCealSystem(phone, MobiCealConfig(num_volumes=4))
            phone.framework.power_on()
            system.initialize(DECOY, hidden_passwords=(HIDDEN,))
            system.boot_with_password(DECOY)
            system.start_framework()
            system.store_file("/same.bin", b"identical content" * 100)
            system.sync()
            layouts.append(
                tuple(sorted(system.pool.volume_record(1).mappings.values()))
            )
        assert layouts[0] != layouts[1]

    def test_same_seed_is_bit_reproducible(self):
        digests = []
        for _ in range(2):
            phone = Phone(seed=42, userdata_blocks=4096)
            system = MobiCealSystem(phone, MobiCealConfig(num_volumes=4))
            phone.framework.power_on()
            system.initialize(DECOY, hidden_passwords=(HIDDEN,))
            system.boot_with_password(DECOY)
            system.start_framework()
            system.store_file("/f.bin", b"content" * 200)
            system.sync()
            from repro.blockdev import capture

            digests.append(capture(phone.userdata).manifest_digest())
        assert digests[0] == digests[1]


class TestHiddenVolumeIndexDistribution:
    """k-derivation spreads hidden volumes over [2, n] across salts."""

    def test_spread(self):
        from repro.crypto import derive_hidden_volume_index

        n = 10
        ks = [
            derive_hidden_volume_index(b"same-password", bytes([s]) * 16, n)
            for s in range(64)
        ]
        assert set(ks) <= set(range(2, n + 1))
        assert len(set(ks)) >= 6  # well spread over the 9 slots
