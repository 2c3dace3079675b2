"""PV / VG / LV management over simulated block devices."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.blockdev.device import BlockDevice
from repro.dm.core import DMDevice, TableEntry
from repro.dm.linear import LinearTarget
from repro.errors import LVMError

#: Extents are 4 MiB in stock LVM; with 4 KiB blocks that is 1024 blocks.
DEFAULT_EXTENT_BLOCKS = 1024


class PhysicalVolume:
    """A block device initialized for LVM use (``pvcreate``)."""

    def __init__(self, name: str, device: BlockDevice, extent_blocks: int) -> None:
        if device.num_blocks < extent_blocks:
            raise LVMError(
                f"device {name} too small for even one extent "
                f"({device.num_blocks} < {extent_blocks} blocks)"
            )
        self.name = name
        self.device = device
        self.extent_blocks = extent_blocks
        self.num_extents = device.num_blocks // extent_blocks

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

    def add_pv(self, name: str, device: BlockDevice) -> PhysicalVolume:
        """``pvcreate`` + ``vgextend``: bring a device into the group."""
        if any(pv.name == name for pv in self._pvs):
            raise LVMError(f"PV {name} already in VG {self.name}")
        pv = PhysicalVolume(name, device, self.extent_blocks)
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
