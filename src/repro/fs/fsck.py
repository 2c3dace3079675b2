"""Filesystem consistency checker (fsck) for the ext4-like filesystem.

Used by the crash-consistency and property-based tests: after arbitrary
operation sequences (and simulated crashes), the on-disk structures must
stay internally consistent. The checker returns a list of human-readable
inconsistency descriptions; an empty list means the filesystem is clean.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import FileNotFoundInFS
from repro.fs.ext4 import MODE_DIR, MODE_FILE, Ext4Filesystem


def fsck_ext4(fs: Ext4Filesystem) -> List[str]:
    """Cross-check the ext4 namespace against its bitmaps.

    Verifies that (1) every block reachable from the root is marked
    allocated exactly once, (2) no two files share a block, (3) the block
    bitmap marks nothing beyond metadata + reachable blocks, and (4) the
    inode bitmap agrees with the set of reachable inodes.
    """
    issues: List[str] = []
    if not fs.mounted:
        issues.append("filesystem is not mounted")
        return issues

    reachable_inodes: Set[int] = set()
    block_owners: Dict[int, int] = {}

    def visit(inode_number: int, path: str) -> None:
        if inode_number in reachable_inodes:
            issues.append(f"inode {inode_number} reached twice (at {path})")
            return
        reachable_inodes.add(inode_number)
        try:
            inode = fs._load_inode(inode_number)
        except FileNotFoundInFS:
            issues.append(f"entry {path} names free inode {inode_number}")
            return
        if inode.mode not in (MODE_FILE, MODE_DIR):
            issues.append(f"inode {inode_number} has bad mode {inode.mode}")
            return
        for block, _is_data in fs._iter_file_blocks(inode):
            if block in block_owners:
                issues.append(
                    f"block {block} shared by inodes {block_owners[block]} "
                    f"and {inode_number}"
                )
            block_owners[block] = inode_number
        if inode.mode == MODE_DIR:
            for name, child in fs._read_dir_entries(inode).items():
                visit(child, f"{path.rstrip('/')}/{name}")

    visit(1, "/")

    # every owned block must be marked in the bitmap
    for block in block_owners:
        group = (block - 1) // fs._bpg
        offset = (block - 1) % fs._bpg
        if not fs._bit(fs._bbm(group), offset):
            issues.append(f"block {block} in use but free in bitmap")

    # every marked non-metadata block must be owned
    for group in range(fs._groups):
        bitmap = fs._bbm(group)
        for offset in range(fs._bpg):
            block = fs._group_start(group) + offset
            marked = fs._bit(bitmap, offset)
            is_meta = offset < fs._meta_per_group
            if marked and not is_meta and block not in block_owners:
                issues.append(f"block {block} marked allocated but unreachable")
            if not marked and is_meta:
                issues.append(f"metadata block {block} not marked allocated")

    # inode bitmap agreement
    for group in range(fs._groups):
        bitmap = fs._ibm(group)
        for offset in range(fs._ipg):
            number = group * fs._ipg + offset + 1
            marked = fs._bit(bitmap, offset)
            if marked and number not in reachable_inodes:
                issues.append(f"inode {number} marked in use but unreachable")
            if not marked and number in reachable_inodes:
                issues.append(f"inode {number} reachable but marked free")
    return issues

