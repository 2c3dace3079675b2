"""Tests shared across the filesystems (ext4-like and tmpfs)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockdev import RAMBlockDevice
from repro.crypto import Rng
from repro.dm.thin import ThinPool
from repro.dm.thin.metadata import MAGIC as THIN_MAGIC
from repro.errors import (
    DirectoryNotEmptyError,
    FileExistsInFS,
    FileNotFoundInFS,
    FilesystemError,
    IsADirectoryFSError,
    NoSpaceError,
    NotADirectoryFSError,
    NotFormattedError,
)
from repro.fs import Ext4Filesystem, TmpFilesystem
from repro.fs.ext4 import _first_clear
from repro.fs.vfs import parent_and_name, split_path


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
DISK_KINDS = ["ext4"]


class TestPathHelpers:
    def test_split(self):
        assert split_path("/") == []
        assert split_path("/a/b") == ["a", "b"]
        assert split_path("/a//b/") == ["a", "b"]

    def test_relative_rejected(self):
        with pytest.raises(FilesystemError):
            split_path("a/b")

    def test_dots_rejected(self):
        with pytest.raises(FilesystemError):
            split_path("/a/../b")

    def test_long_component_rejected(self):
        with pytest.raises(FilesystemError):
            split_path("/" + "x" * 300)

    def test_parent_and_name(self):
        assert parent_and_name("/a/b/c") == ("/a/b", "c")
        assert parent_and_name("/top") == ("/", "top")
        with pytest.raises(FilesystemError):
            parent_and_name("/")


@pytest.mark.parametrize("kind", KINDS)
class TestCommonSemantics:
    def test_empty_root(self, kind):
        assert make_fs(kind).listdir("/") == []

    def test_write_read_roundtrip(self, kind):
        fs = make_fs(kind)
        fs.write_file("/f.txt", b"hello")
        assert fs.read_file("/f.txt") == b"hello"

    def test_overwrite_truncates(self, kind):
        fs = make_fs(kind)
        fs.write_file("/f", b"long content here")
        fs.write_file("/f", b"hi")
        assert fs.read_file("/f") == b"hi"
        assert fs.stat("/f").size == 2

    def test_append(self, kind):
        fs = make_fs(kind)
        fs.write_file("/f", b"ab")
        fs.append_file("/f", b"cd")
        assert fs.read_file("/f") == b"abcd"

    def test_empty_file(self, kind):
        fs = make_fs(kind)
        fs.write_file("/empty", b"")
        assert fs.read_file("/empty") == b""
        assert fs.stat("/empty").size == 0

    def test_nested_directories(self, kind):
        fs = make_fs(kind)
        fs.makedirs("/a/b/c")
        fs.write_file("/a/b/c/deep.txt", b"x")
        assert fs.listdir("/a") == ["b"]
        assert fs.listdir("/a/b/c") == ["deep.txt"]
        assert fs.stat("/a/b").is_dir

    def test_missing_file(self, kind):
        fs = make_fs(kind)
        with pytest.raises(FileNotFoundInFS):
            fs.read_file("/nope")
        assert not fs.exists("/nope")

    def test_mkdir_existing_rejected(self, kind):
        fs = make_fs(kind)
        fs.mkdir("/d")
        with pytest.raises(FileExistsInFS):
            fs.mkdir("/d")

    def test_rmdir_nonempty_rejected(self, kind):
        fs = make_fs(kind)
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x")
        with pytest.raises(DirectoryNotEmptyError):
            fs.rmdir("/d")
        fs.unlink("/d/f")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_unlink_directory_rejected(self, kind):
        fs = make_fs(kind)
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryFSError):
            fs.unlink("/d")

    def test_rmdir_file_rejected(self, kind):
        fs = make_fs(kind)
        fs.write_file("/f", b"x")
        with pytest.raises(NotADirectoryFSError):
            fs.rmdir("/f")

    def test_open_directory_rejected(self, kind):
        fs = make_fs(kind)
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryFSError):
            fs.open("/d", "r")

    def test_file_as_directory_rejected(self, kind):
        fs = make_fs(kind)
        fs.write_file("/f", b"x")
        with pytest.raises((NotADirectoryFSError, FileNotFoundInFS)):
            fs.write_file("/f/child", b"y")

    def test_bad_open_mode(self, kind):
        fs = make_fs(kind)
        with pytest.raises(FilesystemError):
            fs.open("/f", "rw")

    def test_handle_seek_and_partial_read(self, kind):
        fs = make_fs(kind)
        fs.write_file("/f", bytes(range(100)))
        with fs.open("/f") as h:
            h.seek(10)
            assert h.read(5) == bytes(range(10, 15))
            assert h.tell() == 15
            assert h.read() == bytes(range(15, 100))

    def test_handle_closed_rejected(self, kind):
        fs = make_fs(kind)
        fs.write_file("/f", b"x")
        h = fs.open("/f")
        h.close()
        with pytest.raises(FilesystemError):
            h.read()

    def test_read_handle_cannot_write(self, kind):
        fs = make_fs(kind)
        fs.write_file("/f", b"x")
        with fs.open("/f") as h:
            with pytest.raises(FilesystemError):
                h.write(b"y")

    def test_multiblock_file(self, kind):
        fs = make_fs(kind)
        data = bytes(range(256)) * 128  # 32 KiB, crosses blocks
        fs.write_file("/big", data)
        assert fs.read_file("/big") == data
        assert fs.stat("/big").size == len(data)

    def test_unaligned_sizes(self, kind):
        fs = make_fs(kind)
        for size in (1, 4095, 4096, 4097, 12345):
            data = (b"z" * size)
            fs.write_file(f"/f{size}", data)
            assert fs.read_file(f"/f{size}") == data

    def test_many_files_in_directory(self, kind):
        fs = make_fs(kind)
        fs.mkdir("/many")
        names = [f"file_{i:03d}.dat" for i in range(100)]
        for i, name in enumerate(names):
            fs.write_file(f"/many/{name}", bytes([i]))
        assert fs.listdir("/many") == sorted(names)
        for i, name in enumerate(names):
            assert fs.read_file(f"/many/{name}") == bytes([i])

    def test_walk(self, kind):
        fs = make_fs(kind)
        fs.makedirs("/a/b")
        fs.write_file("/a/f1", b"x")
        fs.write_file("/a/b/f2", b"y")
        walked = list(fs.walk("/"))
        assert walked[0][1] == ["a"]
        all_files = [f for _, _, files in walked for f in files]
        assert sorted(all_files) == ["f1", "f2"]

    def test_unmount_then_ops_fail(self, kind):
        fs = make_fs(kind)
        fs.unmount()
        with pytest.raises(FilesystemError):
            fs.listdir("/")


@pytest.mark.parametrize("kind", DISK_KINDS)
class TestDiskPersistence:
    def test_remount_sees_data(self, kind):
        dev = RAMBlockDevice(2048)
        fs = Ext4Filesystem(dev)
        fs.format()
        fs.mount()
        fs.makedirs("/x/y")
        fs.write_file("/x/y/data.bin", b"D" * 50000)
        fs.unmount()
        fs2 = Ext4Filesystem(dev)
        fs2.mount()
        assert fs2.read_file("/x/y/data.bin") == b"D" * 50000

    def test_mount_blank_fails(self, kind):
        with pytest.raises(NotFormattedError):
            Ext4Filesystem(RAMBlockDevice(2048)).mount()

    def test_mount_other_fs_fails(self, kind):
        """A foreign on-disk format (thin-pool metadata) is refused."""
        dev = RAMBlockDevice(2048)
        ThinPool.format(dev, RAMBlockDevice(256), rng=Rng(0))
        assert dev.read_block(0).startswith(THIN_MAGIC)
        with pytest.raises(NotFormattedError):
            Ext4Filesystem(dev).mount()

    def test_no_space(self, kind):
        dev = RAMBlockDevice(64)
        fs = Ext4Filesystem(dev)
        fs.format()
        fs.mount()
        with pytest.raises(NoSpaceError):
            fs.write_file("/huge", b"x" * (64 * 4096))

    def test_delete_frees_space(self, kind):
        dev = RAMBlockDevice(128)
        fs = Ext4Filesystem(dev)
        fs.format()
        fs.mount()
        # fill/delete repeatedly: space must be reusable
        for round_ in range(5):
            fs.write_file("/bulk", bytes([round_]) * (60 * 4096))
            assert fs.read_file("/bulk") == bytes([round_]) * (60 * 4096)
            fs.unlink("/bulk")


class TestExt4Specifics:
    def test_indirect_and_double_indirect(self):
        dev = RAMBlockDevice(4096)
        fs = Ext4Filesystem(dev)
        fs.format()
        fs.mount()
        # > 12 direct + some of the indirect range, and hole reads
        data = bytes(range(256)) * 16 * 40  # 160 KiB = 40 blocks
        fs.write_file("/big", data)
        assert fs.read_file("/big") == data
        st_ = fs.stat("/big")
        assert st_.blocks == 40

    def test_sparse_hole_reads_zero(self):
        dev = RAMBlockDevice(2048)
        fs = Ext4Filesystem(dev)
        fs.format()
        fs.mount()
        with fs.open("/sparse", "w") as h:
            h.seek(100000)
            h.write(b"end")
        data = fs.read_file("/sparse")
        assert data[:100000] == b"\x00" * 100000
        assert data[100000:] == b"end"

    def test_spatial_locality_of_allocation(self):
        """Sequentially written file blocks should be mostly contiguous."""
        dev = RAMBlockDevice(4096)
        fs = Ext4Filesystem(dev)
        fs.format()
        fs.mount()
        fs.write_file("/seq", b"q" * (64 * 4096))
        # walk the mapping: consecutive file blocks -> mostly consecutive disk
        inode = fs._resolve("/seq")
        blocks = [
            fs._map_block(inode, i, allocate=False, goal=None) for i in range(64)
        ]
        contiguous = sum(
            1 for a, b in zip(blocks, blocks[1:]) if b == a + 1
        )
        assert contiguous >= 55

    def test_free_block_count_changes(self):
        dev = RAMBlockDevice(1024)
        fs = Ext4Filesystem(dev)
        fs.format()
        fs.mount()
        before = fs.free_block_count()
        fs.write_file("/f", b"x" * (10 * 4096))
        assert fs.free_block_count() < before
        fs.unlink("/f")
        assert fs.free_block_count() == before

    def test_first_clear_matches_bitwise_scan(self):
        rng = random.Random(4242)
        for _ in range(2000):
            bitmap = _random_bitmap(rng, rng.randint(1, 40))
            lo = rng.randint(0, len(bitmap) * 8)
            hi = rng.randint(0, len(bitmap) * 8)
            assert _first_clear(bitmap, lo, hi) == _bitwise_first_clear(
                bitmap, lo, hi
            ), (bytes(bitmap).hex(), lo, hi)

    def test_allocator_matches_bitwise_reference(self):
        """Seeded random bitmaps and goals, incl. the wrap-within-group pass."""
        rng = random.Random(99)
        fs = Ext4Filesystem(RAMBlockDevice(2048), blocks_per_group=200)
        fs.format()
        fs.mount()
        last = 1 + fs._groups * fs._bpg
        outcomes = {"wrapped": 0, "full": 0}
        for case in range(300):
            for g in range(fs._groups):
                bitmap = fs._bbm(g)
                if case % 25:
                    bitmap[:] = _random_bitmap(rng, len(bitmap))
                else:
                    bitmap[:] = b"\xff" * len(bitmap)
                for i in range(fs._meta_per_group):
                    bitmap[i >> 3] |= 1 << (i & 7)
            fs._alloc_hint = rng.randrange(fs._groups)
            goal = rng.choice(
                [None, 0, rng.randint(1, last), rng.randint(last, last + 500)]
            )
            expected = _bitwise_allocate(fs, goal)
            if expected is None:
                outcomes["full"] += 1
                with pytest.raises(NoSpaceError):
                    fs._allocate_block(goal)
                continue
            if goal is not None and goal >= 1 and expected < goal and (
                (expected - 1) // fs._bpg
                == min((goal - 1) // fs._bpg, fs._groups - 1)
            ):
                outcomes["wrapped"] += 1
            assert fs._allocate_block(goal) == expected, goal
            assert fs._bit(fs._bbm((expected - 1) // fs._bpg),
                           (expected - 1) % fs._bpg)
        assert outcomes["wrapped"] and outcomes["full"]


def _random_bitmap(rng, nbytes):
    """Mostly-full bitmap bytes: long 0xFF runs, some partial and empty."""
    full, partial = rng.choice([(0.9, 0.08), (1.0, 0.0), (0.5, 0.3)])
    out = bytearray()
    for _ in range(nbytes):
        r = rng.random()
        if r < full:
            out.append(0xFF)
        elif r < full + partial:
            out.append(rng.randrange(256))
        else:
            out.append(0)
    return out


def _bitwise_first_clear(bitmap, lo, hi):
    """Reference scan: test every bit in ``[lo, hi)`` in order."""
    for index in range(lo, hi):
        if not bitmap[index >> 3] & (1 << (index & 7)):
            return index
    return None


def _bitwise_allocate(fs, goal):
    """Which block ``_allocate_block(goal)`` must return, bit by bit."""
    if goal is not None and goal >= 1:
        preferred = min((goal - 1) // fs._bpg, fs._groups - 1)
    else:
        preferred = fs._alloc_hint
    order = [preferred] + [g for g in range(fs._groups) if g != preferred]
    for g in order:
        bitmap = fs._bbm(g)
        start = 0
        if goal is not None and g == preferred:
            start = max((goal - 1) % fs._bpg, fs._meta_per_group)
        offset = _bitwise_first_clear(bitmap, start, fs._bpg)
        if offset is None:
            offset = _bitwise_first_clear(bitmap, fs._meta_per_group, start)
        if offset is not None:
            return 1 + g * fs._bpg + offset
    return None


@pytest.mark.parametrize("kind", DISK_KINDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_random_operations_match_model(kind, data):
    """Property: a filesystem behaves like a dict of path -> bytes."""
    fs = make_fs(kind, blocks=1024)
    model = {}
    names = [f"/f{i}" for i in range(6)]
    ops = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["write", "append", "delete"]),
                st.sampled_from(names),
                st.binary(max_size=9000),
            ),
            max_size=25,
        )
    )
    for op, name, payload in ops:
        if op == "write":
            fs.write_file(name, payload)
            model[name] = payload
        elif op == "append":
            if name in model:
                fs.append_file(name, payload)
                model[name] = model[name] + payload
        elif op == "delete":
            if name in model:
                fs.unlink(name)
                del model[name]
    for name in names:
        if name in model:
            assert fs.read_file(name) == model[name]
        else:
            assert not fs.exists(name)
