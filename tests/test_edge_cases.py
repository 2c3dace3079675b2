"""Edge cases and failure injection across the stack."""

import pytest

from repro.android import CryptoFooter, Phone
from repro.android.footer import FOOTER_BLOCKS
from repro.blockdev import RAMBlockDevice
from repro.core import MobiCealConfig, MobiCealSystem
from repro.crypto import Rng
from repro.dm.thin import ThinPool
from repro.errors import (
    FooterError,
    NoSpaceError,
    PDEError,
    ReproError,
)
from repro.fs import Ext4Filesystem

DECOY, HIDDEN = "decoy", "hidden"


class TestErrorHierarchy:
    def test_all_library_errors_share_a_root(self):
        import inspect

        import repro.errors as errors_module

        for _name, cls in inspect.getmembers(errors_module, inspect.isclass):
            if cls.__module__ == "repro.errors":
                assert issubclass(cls, ReproError) or cls is ReproError

    def test_catching_the_root_covers_subsystems(self):
        with pytest.raises(ReproError):
            Ext4Filesystem(RAMBlockDevice(2048)).mount()
        with pytest.raises(ReproError):
            RAMBlockDevice(4).read_block(99)


class TestFooterEdgeCases:
    def test_corrupt_version(self):
        dev = RAMBlockDevice(64)
        footer, _ = CryptoFooter.create("pw", Rng(0))
        footer.store(dev)
        raw = bytearray(dev.peek(dev.num_blocks - FOOTER_BLOCKS))
        raw[8] = 0xEE  # version field
        dev.poke(dev.num_blocks - FOOTER_BLOCKS, bytes(raw))
        with pytest.raises(FooterError):
            CryptoFooter.load(dev)

    def test_pack_unpack_roundtrip(self):
        footer, _ = CryptoFooter.create("pw", Rng(1))
        restored = CryptoFooter.unpack(footer.pack(4096))
        assert restored.salt == footer.salt
        assert restored.encrypted_master_key == footer.encrypted_master_key
        assert restored.kdf_iterations == footer.kdf_iterations

    def test_unicode_passwords(self):
        footer, key = CryptoFooter.create("pässwörd-日本語", Rng(2))
        assert footer.unlock("pässwörd-日本語") == key
        assert footer.unlock("passwort-riben") != key


class TestExt4EdgeCases:
    def test_inode_exhaustion(self):
        dev = RAMBlockDevice(128)
        fs = Ext4Filesystem(dev, blocks_per_group=64)
        fs.format()
        fs.mount()
        with pytest.raises(NoSpaceError):
            for i in range(1000):
                fs.write_file(f"/f{i}", b"")

    def test_deep_directory_nesting(self):
        dev = RAMBlockDevice(2048)
        fs = Ext4Filesystem(dev)
        fs.format()
        fs.mount()
        path = "/" + "/".join(f"level{i}" for i in range(25))
        fs.makedirs(path)
        fs.write_file(path + "/leaf.txt", b"deep")
        assert fs.read_file(path + "/leaf.txt") == b"deep"

    def test_long_filenames(self):
        dev = RAMBlockDevice(1024)
        fs = Ext4Filesystem(dev)
        fs.format()
        fs.mount()
        name = "x" * 255
        fs.write_file(f"/{name}", b"max-length name")
        assert fs.listdir("/") == [name]

    def test_write_at_exact_indirect_boundaries(self):
        """File sizes straddling direct -> indirect -> double-indirect."""
        dev = RAMBlockDevice(4096)
        fs = Ext4Filesystem(dev)
        fs.format()
        fs.mount()
        bs = 4096
        ppb = bs // 8
        for nblocks in (11, 12, 13, 12 + ppb - 1, 12 + ppb, 12 + ppb + 1):
            data = bytes([nblocks % 256]) * (nblocks * bs)
            fs.write_file("/boundary", data)
            assert fs.read_file("/boundary") == data
        fs.unlink("/boundary")


class TestPDEValidation:
    def test_too_many_hidden_passwords(self):
        phone = Phone(seed=1, userdata_blocks=4096)
        system = MobiCealSystem(phone, MobiCealConfig(num_volumes=3))
        phone.framework.power_on()
        with pytest.raises(PDEError):
            system.initialize(DECOY, hidden_passwords=("a", "b", "c"))

    def test_hidden_password_too_long(self):
        phone = Phone(seed=2, userdata_blocks=4096)
        system = MobiCealSystem(phone, MobiCealConfig(num_volumes=4))
        phone.framework.power_on()
        with pytest.raises(PDEError):
            system.initialize(DECOY, hidden_passwords=("x" * 5000,))

    def test_duplicate_hidden_passwords_collide_and_resolve(self):
        """Two *distinct* passwords may derive the same k; initialization
        must retry salts until the indices are collision-free."""
        phone = Phone(seed=3, userdata_blocks=8192)
        # only 3 hidden/dummy slots -> k-collisions likely across retries
        system = MobiCealSystem(phone, MobiCealConfig(num_volumes=4))
        phone.framework.power_on()
        system.initialize(DECOY, hidden_passwords=("alpha", "beta"))
        system.boot_with_password(DECOY)
        k1 = system.check_hidden_password("alpha")[0]
        k2 = system.check_hidden_password("beta")[0]
        assert k1 != k2

    def test_pool_exhaustion_surfaces_cleanly(self):
        phone = Phone(seed=4, userdata_blocks=1024)
        system = MobiCealSystem(phone, MobiCealConfig(num_volumes=3))
        phone.framework.power_on()
        system.initialize(DECOY, hidden_passwords=(HIDDEN,))
        system.boot_with_password(DECOY)
        system.start_framework()
        with pytest.raises(ReproError):
            for i in range(2000):
                system.store_file(f"/fill{i}.bin", b"z" * 65536)


class TestThinPoolEdgeCases:
    def test_zero_size_volume_rejected(self):
        md, dd = RAMBlockDevice(16), RAMBlockDevice(64)
        pool = ThinPool.format(md, dd, rng=Rng(0))
        with pytest.raises(ValueError):
            pool.create_thin(1, 0)

    def test_overcommit_many_volumes(self):
        """Thin provisioning: 10 volumes each advertising the full pool."""
        md, dd = RAMBlockDevice(16), RAMBlockDevice(64)
        pool = ThinPool.format(md, dd, rng=Rng(0))
        for vid in range(1, 11):
            pool.create_thin(vid, 64)
        # each can write a little; the pool only holds 64 real blocks
        for vid in range(1, 11):
            pool.get_thin(vid).write_block(0, bytes([vid]) * 4096)
        assert pool.allocated_data_blocks == 10
        for vid in range(1, 11):
            assert pool.get_thin(vid).read_block(0) == bytes([vid]) * 4096


class TestDiscardOnDelete:
    """ext4 mounts without ``-o discard``: deletions are not passed down
    as TRIM, so freed blocks stay provisioned in the thin pool."""

    def test_default_keeps_blocks_provisioned(self):
        from repro.blockdev import RAMBlockDevice
        from repro.crypto import Rng
        from repro.dm.thin import ThinPool
        from repro.fs import Ext4Filesystem

        md, dd = RAMBlockDevice(16), RAMBlockDevice(512)
        pool = ThinPool.format(md, dd, rng=Rng(0))
        pool.create_thin(1, 512)
        fs = Ext4Filesystem(pool.get_thin(1))
        fs.format()
        fs.mount()
        fs.write_file("/big.bin", b"x" * (100 * 4096))
        grown = pool.allocated_data_blocks
        fs.unlink("/big.bin")
        assert pool.allocated_data_blocks == grown  # no discard passdown
