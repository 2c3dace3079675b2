"""Filesystem substrate: VFS interface plus ext4-like and tmpfs implementations."""

from repro.fs.ext4 import Ext4Filesystem
from repro.fs.fsck import fsck_ext4
from repro.fs.tmpfs import TmpFilesystem
from repro.fs.vfs import (
    FileHandle,
    FileStat,
    Filesystem,
    FsUsage,
    parent_and_name,
    split_path,
)

__all__ = [
    "Ext4Filesystem",
    "fsck_ext4",
    "TmpFilesystem",
    "FileHandle",
    "FileStat",
    "FsUsage",
    "Filesystem",
    "parent_and_name",
    "split_path",
]

