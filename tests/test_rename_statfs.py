"""Tests for rename and statfs across the filesystems."""

import pytest

from repro.blockdev import RAMBlockDevice
from repro.errors import (
    FileExistsInFS,
    FileNotFoundInFS,
    FilesystemError,
)
from repro.fs import Ext4Filesystem, TmpFilesystem, fsck_ext4


def make_fs(kind, blocks=2048):
    if kind == "tmpfs":
        fs = TmpFilesystem()
        fs.format()
        fs.mount()
        return fs
    dev = RAMBlockDevice(blocks)
    fs = Ext4Filesystem(dev)
    fs.format()
    fs.mount()
    return fs


KINDS = ["ext4", "tmpfs"]


@pytest.mark.parametrize("kind", KINDS)
class TestRename:
    def test_rename_file_same_directory(self, kind):
        fs = make_fs(kind)
        fs.write_file("/old.txt", b"content")
        fs.rename("/old.txt", "/new.txt")
        assert not fs.exists("/old.txt")
        assert fs.read_file("/new.txt") == b"content"

    def test_move_file_across_directories(self, kind):
        fs = make_fs(kind)
        fs.makedirs("/a")
        fs.makedirs("/b")
        fs.write_file("/a/f.bin", b"x" * 10000)
        fs.rename("/a/f.bin", "/b/g.bin")
        assert fs.read_file("/b/g.bin") == b"x" * 10000
        assert fs.listdir("/a") == []

    def test_rename_directory_with_contents(self, kind):
        fs = make_fs(kind)
        fs.makedirs("/proj/src")
        fs.write_file("/proj/src/main.py", b"print()")
        fs.rename("/proj", "/archive")
        assert fs.read_file("/archive/src/main.py") == b"print()"
        assert not fs.exists("/proj")

    def test_rename_missing_source(self, kind):
        fs = make_fs(kind)
        with pytest.raises(FileNotFoundInFS):
            fs.rename("/nope", "/whatever")

    def test_rename_onto_existing_target(self, kind):
        fs = make_fs(kind)
        fs.write_file("/a", b"1")
        fs.write_file("/b", b"2")
        with pytest.raises(FileExistsInFS):
            fs.rename("/a", "/b")
        assert fs.read_file("/b") == b"2"

    def test_rename_dir_into_itself_rejected(self, kind):
        fs = make_fs(kind)
        fs.makedirs("/d")
        with pytest.raises(FilesystemError):
            fs.rename("/d", "/d/sub")

    def test_rename_survives_remount(self, kind):
        if kind == "tmpfs":
            pytest.skip("tmpfs does not persist")
        dev = RAMBlockDevice(2048)
        fs = Ext4Filesystem(dev)
        fs.format()
        fs.mount()
        fs.write_file("/before", b"data")
        fs.rename("/before", "/after")
        fs.unmount()
        fs2 = Ext4Filesystem(dev)
        fs2.mount()
        assert fs2.read_file("/after") == b"data"
        assert not fs2.exists("/before")

    def test_rename_keeps_fsck_clean(self, kind):
        if kind == "tmpfs":
            pytest.skip("no fsck for tmpfs")
        fs = make_fs(kind)
        fs.makedirs("/a/b")
        fs.write_file("/a/b/f", b"q" * 30000)
        fs.rename("/a/b/f", "/top.bin")
        fs.rename("/a", "/z")
        assert fsck_ext4(fs) == []


@pytest.mark.parametrize("kind", ["ext4"])
class TestStatfs:
    def test_free_shrinks_on_write(self, kind):
        fs = make_fs(kind)
        before = fs.statfs()
        fs.write_file("/f", b"x" * (20 * 4096))
        after = fs.statfs()
        assert after.free_blocks < before.free_blocks
        assert after.total_blocks == before.total_blocks
        assert after.block_size == 4096

    def test_free_recovers_on_delete(self, kind):
        fs = make_fs(kind)
        before = fs.statfs().free_blocks
        fs.write_file("/f", b"x" * (20 * 4096))
        fs.unlink("/f")
        assert fs.statfs().free_blocks == before

    def test_usage_properties(self, kind):
        fs = make_fs(kind)
        usage = fs.statfs()
        assert usage.used_blocks == usage.total_blocks - usage.free_blocks
        assert usage.free_bytes == usage.free_blocks * usage.block_size


class TestTmpfsStatfs:
    def test_counts_bytes(self):
        fs = make_fs("tmpfs")
        assert fs.statfs().total_blocks == 0
        fs.write_file("/f", b"x" * 5000)  # 2 nominal blocks
        assert fs.statfs().total_blocks == 2
