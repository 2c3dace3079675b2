"""The simulated phone: storage devices + framework + randomness sources.

A :class:`Phone` bundles everything one simulated device owns: the shared
clock, the eMMC-backed userdata/cache/devlog partitions, the Android
framework model, and the randomness sources (seedable RNG, jiffies, flash
TRNG). The PDE systems (MobiCeal, and the FDE / hidden-volume baselines)
are installed *onto* a phone, mirroring how the real prototype patches a
stock device.
"""

from __future__ import annotations

from typing import Optional

from repro.android.framework import AndroidFramework
from repro.android.profiles import NEXUS4, DeviceProfile
from repro.blockdev.clock import SimClock
from repro.blockdev.device import BlockDevice
from repro.blockdev.emmc import EMMCDevice
from repro.crypto.rng import FlashNoiseTRNG, JiffiesSource, Rng

#: Userdata size used by tests/examples when full phone scale is not needed
#: (4 MiB at 4 KiB blocks keeps snapshot diffs fast).
SMALL_USERDATA_BLOCKS = 1024


class Phone:
    """One simulated mobile device.

    Every partition keeps its bytes in a
    :class:`~repro.blockdev.store.CowOverlayStore`, so a phone holds only
    the blocks it wrote, and its images freeze in O(dirty blocks) for
    snapshot capture and the daemon's per-op checkpoints.
    """

    def __init__(
        self,
        profile: DeviceProfile = NEXUS4,
        userdata_blocks: Optional[int] = None,
        seed: int = 0,
        userdata_device: Optional[BlockDevice] = None,
    ) -> None:
        self.profile = profile
        self.clock = SimClock()
        self.rng = Rng(seed)

        if userdata_device is not None:
            # bring-your-own medium (e.g. a fault injector); the caller
            # is responsible for wiring its latency model to a clock
            if userdata_device.block_size != profile.block_size:
                raise ValueError("userdata device block size != profile's")
            self.userdata = userdata_device
        else:
            blocks = userdata_blocks if userdata_blocks else SMALL_USERDATA_BLOCKS
            self.userdata = EMMCDevice(
                blocks,
                block_size=profile.block_size,
                clock=self.clock,
                latency=profile.emmc,
                jitter=0.03,
                jitter_rng=self.rng.fork("io-jitter"),
            )
        self.cache_dev = EMMCDevice(
            512, block_size=profile.block_size, clock=self.clock,
            latency=profile.emmc,
        )
        self.devlog_dev = EMMCDevice(
            256, block_size=profile.block_size, clock=self.clock,
            latency=profile.emmc,
        )
        self.framework = AndroidFramework(self.clock, profile)
        self.jiffies = JiffiesSource(self.clock, self.rng.fork("jiffies"))
        self.trng = FlashNoiseTRNG(self.rng.fork("trng"))

    @property
    def userdata_blocks(self) -> int:
        return self.userdata.num_blocks
