"""Builders for the measured storage stacks of Fig. 4 and Table I.

Each builder returns a :class:`Stack`: a mounted filesystem plus the shared
simulated clock, ready for the workload generators. The five Fig. 4
settings are reproduced exactly as the paper defines them (Sec. VI-B):

* ``android``  — default Android FDE (dm-crypt straight on the partition);
* ``a-t-p``    — public thin volume, *stock* kernel (sequential allocation,
  no dummy writes);
* ``a-t-h``    — hidden thin volume, stock kernel;
* ``mc-p``     — MobiCeal public volume (random allocation + dummy writes);
* ``mc-h``     — MobiCeal hidden volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.android.footer import data_area_blocks
from repro.android.phone import Phone
from repro.android.profiles import NANDSIM, NEXUS4, SSD_I7, DeviceProfile
from repro.baselines.defy import DefyDevice
from repro.baselines.hive import WriteOnlyORAMDevice
from repro.blockdev.clock import SimClock
from repro.blockdev.device import SubDevice
from repro.blockdev.emmc import EMMCDevice
from repro.core.config import MobiCealConfig
from repro.core.system import MobiCealSystem
from repro.crypto.rng import Rng
from repro.dm.crypt import create_crypt_device
from repro.dm.thin.pool import ThinPool
from repro.fs.ext4 import Ext4Filesystem
from repro.fs.vfs import Filesystem
from repro.lvm.lvm import thin_pool_lvs

FIG4_SETTINGS = ("android", "a-t-p", "a-t-h", "mc-p", "mc-h")


@dataclass
class Stack:
    """A mounted filesystem under measurement."""

    name: str
    fs: Filesystem
    clock: SimClock
    phone: Optional[Phone] = None
    system: Optional[MobiCealSystem] = None


def _thin_pool_stack(
    phone: Phone, vol_id: int, name: str
) -> Stack:
    """Stock-kernel thin stack (A-T-P / A-T-H): sequential, no dummy writes."""
    area = data_area_blocks(phone.userdata)
    meta_dev, data_dev = thin_pool_lvs(
        phone.userdata, area, max(8, int(area * 0.02))
    )
    pool = ThinPool.format(
        meta_dev,
        data_dev,
        allocation="sequential",
        clock=phone.clock,
        costs=phone.profile.thin_costs,
    )
    for vid in (1, 2):
        pool.create_thin(vid, data_dev.num_blocks)
    crypt = create_crypt_device(
        name,
        pool.get_thin(vol_id),
        key=phone.rng.random_bytes(32),
        clock=phone.clock,
        crypto_byte_cost_s=phone.profile.crypto_byte_cost_s,
    )
    fs = Ext4Filesystem(crypt)
    fs.format()
    fs.mount()
    return Stack(name=name, fs=fs, clock=phone.clock, phone=phone)


def build_fig4_stack(
    setting: str,
    seed: int,
    userdata_blocks: int = 32768,
    profile: DeviceProfile = NEXUS4,
) -> Stack:
    """Build one of the five Fig. 4 settings on a fresh phone."""
    phone = Phone(profile=profile, userdata_blocks=userdata_blocks, seed=seed)
    if setting == "android":
        crypt = create_crypt_device(
            "userdata",
            SubDevice(phone.userdata, 0, data_area_blocks(phone.userdata)),
            key=phone.rng.random_bytes(32),
            clock=phone.clock,
            crypto_byte_cost_s=profile.crypto_byte_cost_s,
        )
        fs = Ext4Filesystem(crypt)
        fs.format()
        fs.mount()
        return Stack(name=setting, fs=fs, clock=phone.clock, phone=phone)
    if setting == "a-t-p":
        return _thin_pool_stack(phone, vol_id=1, name=setting)
    if setting == "a-t-h":
        return _thin_pool_stack(phone, vol_id=2, name=setting)
    if setting in ("mc-p", "mc-h"):
        config = MobiCealConfig(num_volumes=6)
        system = MobiCealSystem(phone, config)
        phone.framework.power_on()
        system.initialize("decoy-pw", hidden_passwords=("hidden-pw",))
        password = "decoy-pw" if setting == "mc-p" else "hidden-pw"
        fs = system.boot_with_password(password)
        return Stack(
            name=setting, fs=fs, clock=phone.clock, phone=phone, system=system
        )
    raise ValueError(f"unknown Fig. 4 setting {setting!r}; known: {FIG4_SETTINGS}")


# -- Table I stacks ------------------------------------------------------------


def build_raw_ext4_stack(
    profile: DeviceProfile, num_blocks: int, seed: int
) -> Stack:
    """Plain ext4 directly on the medium (a Table I "Ext4" column entry)."""
    clock = SimClock()
    device = EMMCDevice(
        num_blocks, block_size=profile.block_size, clock=clock,
        latency=profile.emmc,
    )
    fs = Ext4Filesystem(device)
    fs.format()
    fs.mount()
    return Stack(name=f"{profile.name}-raw", fs=fs, clock=clock)


def build_defy_stack(num_blocks: int = 16384, seed: int = 0) -> Stack:
    """ext4 over the DEFY log-structured store on the nandsim device."""
    clock = SimClock()
    backing = EMMCDevice(
        num_blocks, block_size=NANDSIM.block_size, clock=clock,
        latency=NANDSIM.emmc,
    )
    defy = DefyDevice(
        backing,
        num_blocks=num_blocks * 2 // 5,
        key=b"defy-key".ljust(32, b"\x00"),
        rng=Rng(seed),
        clock=clock,
        crypto_byte_cost_s=NANDSIM.crypto_byte_cost_s,
    )
    fs = Ext4Filesystem(defy)
    fs.format()
    fs.mount()
    return Stack(name="defy", fs=fs, clock=clock)


def build_hive_stack(num_blocks: int = 16384, seed: int = 0) -> Stack:
    """ext4 over the HIVE write-only ORAM on the SSD device."""
    clock = SimClock()
    backing = EMMCDevice(
        num_blocks, block_size=SSD_I7.block_size, clock=clock,
        latency=SSD_I7.emmc,
    )
    oram = WriteOnlyORAMDevice(
        backing,
        num_blocks=(num_blocks - 1) // 3,
        key=b"hive-key".ljust(32, b"\x00"),
        rng=Rng(seed),
        clock=clock,
        crypto_byte_cost_s=SSD_I7.crypto_byte_cost_s,
    )
    fs = Ext4Filesystem(oram)
    fs.format()
    fs.mount()
    return Stack(name="hive", fs=fs, clock=clock)
