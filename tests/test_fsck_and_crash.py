"""Consistency checking: fsck after random ops and crash-consistency tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockdev import RAMBlockDevice, capture, restore
from repro.blockdev.faults import FaultyBlockDevice
from repro.crypto import Rng
from repro.dm.thin import MetadataStore, ThinPool
from repro.fs import Ext4Filesystem, fsck_ext4
from repro.fs.ext4 import INODE_SIZE
from repro.testing import Ext4FlushScenario, crash_sweep


def make_ext4(blocks=1024):
    dev = RAMBlockDevice(blocks)
    fs = Ext4Filesystem(dev)
    fs.format()
    fs.mount()
    return fs, dev


class TestFsckClean:
    def test_fresh_ext4_clean(self):
        fs, _ = make_ext4()
        assert fsck_ext4(fs) == []

    def test_unmounted_reported(self):
        fs, _ = make_ext4()
        fs.unmount()
        assert fsck_ext4(fs) != []

    def test_after_workload_clean(self):
        fs, _ = make_ext4()
        rng = Rng(1)
        fs.makedirs("/a/b/c")
        for i in range(20):
            fs.write_file(f"/a/b/c/f{i}", rng.random_bytes(rng.randint(0, 30000)))
        for i in range(0, 20, 3):
            fs.unlink(f"/a/b/c/f{i}")
        assert fsck_ext4(fs) == []

    def test_fsck_detects_leaked_block(self):
        fs, _ = make_ext4()
        # corrupt: mark a data block allocated without an owner
        fs._set_bit(fs._bbm(0), fs._meta_per_group + 5)
        issues = fsck_ext4(fs)
        assert any("unreachable" in issue for issue in issues)

    def test_fsck_detects_lost_block(self):
        fs, _ = make_ext4()
        fs.write_file("/f", b"x" * 8192)
        inode = fs._resolve("/f")
        block = inode.direct[0]
        fs._free_block(block)  # bitmap says free, file still points at it
        issues = fsck_ext4(fs)
        assert any("free in bitmap" in issue for issue in issues)

    def test_fsck_reports_entry_naming_a_free_inode(self):
        fs, dev = make_ext4()
        fs.write_file("/f", b"x" * 100)
        fs.flush()
        fs.unmount()
        # corrupt: zero the file's on-disk inode, keep the directory entry
        block, offset = fs._inode_location(2)
        raw = bytearray(dev.read_block(block))
        raw[offset : offset + INODE_SIZE] = bytes(INODE_SIZE)
        dev.write_block(block, bytes(raw))
        fs.mount()
        assert "entry /f names free inode 2" in fsck_ext4(fs)

    def test_fsck_reports_directory_that_does_not_parse(self):
        fs, dev = make_ext4()
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x" * 100)
        fs.flush()
        inode = fs._resolve("/d")
        fs.unmount()
        dev.write_block(inode.direct[0], b"\xff" * 4096)
        fs.mount()
        issues = fsck_ext4(fs)
        assert f"directory /d (inode {inode.number}) does not parse" in issues
        # /d/f is not reached through the corrupt directory
        assert any("marked in use but unreachable" in i for i in issues)

    def test_unjournaled_crash_sweep_reports_corrupt_directory(self):
        class Unjournaled(Ext4FlushScenario):
            def build(self):
                base = RAMBlockDevice(self.NUM_BLOCKS, 4096)
                self.faulty = FaultyBlockDevice(base)
                fs = Ext4Filesystem(self.faulty)
                fs.format()
                fs.mount()
                fs.write_file("/durable.bin", self.DURABLE)
                fs.flush()
                self.fs = fs
                self._rng = Rng(self.seed).fork("ext4-workload")

        (outcome,) = crash_sweep(Unjournaled, indices=[23], seed=0).outcomes
        assert outcome.error is None
        assert any("does not parse" in i for i in outcome.issues)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", ["ext4"])
def test_fsck_clean_after_random_ops(kind, data):
    fs, _ = make_ext4()
    names = [f"/f{i}" for i in range(5)]
    live = set()
    ops = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["write", "delete", "mkdir"]),
                st.sampled_from(names),
                st.integers(0, 20000),
            ),
            max_size=30,
        )
    )
    dirs = 0
    for op, name, size in ops:
        if op == "write":
            fs.write_file(name, b"d" * size)
            live.add(name)
        elif op == "delete" and name in live:
            fs.unlink(name)
            live.discard(name)
        elif op == "mkdir":
            fs.mkdir(f"/d{dirs}")
            dirs += 1
    assert fsck_ext4(fs) == []


class TestCrashConsistency:
    """Snapshot/restore models a crash: whatever was committed must survive."""

    def test_ext4_flush_point_is_durable(self):
        fs, dev = make_ext4()
        fs.write_file("/committed", b"A" * 20000)
        fs.flush()
        checkpoint = capture(dev)
        # more activity after the flush, then crash (restore checkpoint)
        fs.write_file("/uncommitted", b"B" * 20000)
        restore(dev, checkpoint)
        fs2 = Ext4Filesystem(dev)
        fs2.mount()
        assert fs2.read_file("/committed") == b"A" * 20000
        assert fsck_ext4(fs2) == []

    def test_thin_pool_commit_is_durable(self):
        md, dd = RAMBlockDevice(16), RAMBlockDevice(256)
        pool = ThinPool.format(md, dd, rng=Rng(0))
        pool.create_thin(1, 128)
        thin = pool.get_thin(1)
        thin.write_block(0, b"\x01" * 4096)
        pool.commit()
        checkpoint_md = capture(md)
        checkpoint_dd = capture(dd)
        # post-commit activity that never commits
        thin.write_block(1, b"\x02" * 4096)
        # crash: restore both devices to the committed state
        restore(md, checkpoint_md)
        restore(dd, checkpoint_dd)
        pool2 = ThinPool.open(md, dd, rng=Rng(1))
        thin2 = pool2.get_thin(1)
        assert thin2.read_block(0) == b"\x01" * 4096
        assert thin2.read_block(1) == b"\x00" * 4096  # never committed
        assert pool2.allocated_data_blocks == 1

    def test_thin_metadata_torn_commit_recovers_old_generation(self):
        """A crash mid-commit (area written, superblock not) is harmless."""
        md, dd = RAMBlockDevice(16), RAMBlockDevice(128)
        pool = ThinPool.format(md, dd, rng=Rng(0))
        pool.create_thin(1, 64)
        pool.get_thin(1).write_block(0, b"\x07" * 4096)
        pool.commit()
        generation_before = MetadataStore(md)._read_super()[0]
        super_block = md.peek(0)
        # start another commit but "crash" before the superblock write:
        pool.get_thin(1).write_block(1, b"\x08" * 4096)
        pool.commit()
        md.poke(0, super_block)  # crash = superblock flip never landed
        pool2 = ThinPool.open(md, dd, rng=Rng(1))
        assert MetadataStore(md)._read_super()[0] == generation_before
        assert pool2.get_thin(1).read_block(0) == b"\x07" * 4096
        assert pool2.volume_record(1).provisioned_blocks == 1
