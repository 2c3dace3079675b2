"""PV / VG / LV management over simulated block devices."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.blockdev.device import BlockDevice
from repro.dm.core import DMDevice, TableEntry
from repro.dm.linear import LinearTarget
from repro.errors import LVMError

#: Extents are 4 MiB in stock LVM; with 4 KiB blocks that is 1024 blocks.
DEFAULT_EXTENT_BLOCKS = 1024


class PhysicalVolume:
    """The first *blocks* blocks of a device, initialized for LVM use
    (``pvcreate``).

    Like a kernel partition, the PV is an offset range on its device, not
    a device of its own: LVs map their linear segments straight onto
    *device*, and nothing past *blocks* (a crypto footer, say) is ever
    allocated.
    """

    def __init__(
        self, name: str, device: BlockDevice, extent_blocks: int, blocks: int
    ) -> None:
        if not 0 < blocks <= device.num_blocks:
            raise LVMError(
                f"PV {name} of {blocks} blocks does not fit its device "
                f"of {device.num_blocks} blocks"
            )
        if blocks < extent_blocks:
            raise LVMError(
                f"device {name} too small for even one extent "
                f"({blocks} < {extent_blocks} blocks)"
            )
        self.name = name
        self.device = device
        self.extent_blocks = extent_blocks
        self.num_extents = blocks // extent_blocks

    def extent_range(self, extent: int) -> Tuple[int, int]:
        """(start_block, num_blocks) of one extent on the device."""
        if not 0 <= extent < self.num_extents:
            raise LVMError(f"extent {extent} out of range on PV {self.name}")
        return extent * self.extent_blocks, self.extent_blocks


class LogicalVolume:
    """A logical volume: an ordered list of (pv, extent) allocations."""

    def __init__(
        self,
        name: str,
        group: "VolumeGroup",
        extents: List[Tuple[PhysicalVolume, int]],
    ) -> None:
        self.name = name
        self.group = group
        self.extents = extents

    @property
    def num_blocks(self) -> int:
        return sum(pv.extent_blocks for pv, _ in self.extents)

    def open(self) -> DMDevice:
        """Materialize the LV as a dm device of linear segments."""
        entries = []
        start = 0
        for pv, extent in self.extents:
            offset, length = pv.extent_range(extent)
            entries.append(
                TableEntry(
                    start=start,
                    length=length,
                    target=LinearTarget(pv.device, offset, length),
                )
            )
            start += length
        return DMDevice(f"{self.group.name}-{self.name}", entries,
                        self.extents[0][0].device.block_size)


class VolumeGroup:
    """A pool of extents from one or more physical volumes (``vgcreate``)."""

    def __init__(self, name: str, extent_blocks: int = DEFAULT_EXTENT_BLOCKS) -> None:
        self.name = name
        self.extent_blocks = extent_blocks
        self._pvs: List[PhysicalVolume] = []
        self._free: List[Tuple[PhysicalVolume, int]] = []
        self._lvs: Dict[str, LogicalVolume] = {}

    # -- composition -----------------------------------------------------------

    def add_pv(
        self, name: str, device: BlockDevice, blocks: Optional[int] = None
    ) -> PhysicalVolume:
        """``pvcreate`` + ``vgextend``: bring the first *blocks* blocks of
        a device (all of it by default) into the group."""
        if any(pv.name == name for pv in self._pvs):
            raise LVMError(f"PV {name} already in VG {self.name}")
        if blocks is None:
            blocks = device.num_blocks
        pv = PhysicalVolume(name, device, self.extent_blocks, blocks)
        self._pvs.append(pv)
        self._free.extend((pv, e) for e in range(pv.num_extents))
        return pv

    @property
    def total_extents(self) -> int:
        return sum(pv.num_extents for pv in self._pvs)

    @property
    def free_extents(self) -> int:
        return len(self._free)

    def lv_names(self) -> List[str]:
        return sorted(self._lvs)

    def get_lv(self, name: str) -> LogicalVolume:
        lv = self._lvs.get(name)
        if lv is None:
            raise LVMError(f"no LV {name} in VG {self.name}")
        return lv

    # -- LV lifecycle --------------------------------------------------------------

    def create_lv(self, name: str, num_blocks: int) -> LogicalVolume:
        """``lvcreate``: allocate an LV of at least *num_blocks* blocks."""
        if name in self._lvs:
            raise LVMError(f"LV {name} already exists in VG {self.name}")
        if num_blocks <= 0:
            raise LVMError("LV size must be positive")
        needed = -(-num_blocks // self.extent_blocks)
        if needed > len(self._free):
            raise LVMError(
                f"VG {self.name} has {len(self._free)} free extents, "
                f"LV {name} needs {needed}"
            )
        extents = [self._free.pop(0) for _ in range(needed)]
        lv = LogicalVolume(name, self, extents)
        self._lvs[name] = lv
        return lv

    def report(self) -> str:
        """Human-readable ``vgs``/``lvs`` style report."""
        lines = [
            f"VG {self.name}: {self.total_extents} extents "
            f"({self.free_extents} free), extent = {self.extent_blocks} blocks"
        ]
        for name in self.lv_names():
            lv = self._lvs[name]
            lines.append(f"  LV {name}: {len(lv.extents)} extents, "
                         f"{lv.num_blocks} blocks")
        return "\n".join(lines)


def thin_pool_lvs(
    medium: BlockDevice, area: int, meta_blocks: int
) -> Tuple[DMDevice, DMDevice]:
    """(metadata LV, data LV) of a thin pool over *medium*'s first *area*
    blocks, laid out the way Vold drives the LVM tools.

    Extents are area/64 blocks, clamped to [4, 1024]. The metadata LV is
    allocated first; the data LV takes every extent its rounding left.
    """
    extent = min(DEFAULT_EXTENT_BLOCKS, max(4, area // 64))
    vg = VolumeGroup("thinpool", extent_blocks=extent)
    vg.add_pv("userdata", medium, area)
    meta_lv = vg.create_lv("thinmeta", meta_blocks)
    data_lv = vg.create_lv("thindata", vg.free_extents * extent)
    return meta_lv.open(), data_lv.open()
