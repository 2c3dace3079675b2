"""MobiCeal configuration.

All tunables of Sec. IV, with the paper's example values as defaults:
``x = 50`` for the dummy-write trigger, ``lambda = 1`` for the exponential
burst size, daily ``stored_rand`` refresh (one hour in the prototype's
kernel patch — we default to the prototype's value).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class MobiCealConfig:
    """Tunable parameters of the extended MobiCeal scheme."""

    #: total number of thin volumes n (public = V1, the rest hidden/dummy)
    num_volumes: int = 8
    #: the positive constant x of the trigger rule ``rand <= stored_rand mod x``
    dummy_trigger_x: int = 50
    #: rate parameter lambda of the exponential burst size (mean burst 1/lambda)
    dummy_rate: float = 1.0
    #: seconds of simulated time between ``stored_rand`` refreshes
    #: (the prototype refreshes from jiffies at most hourly, Sec. V-A)
    stored_rand_refresh_s: float = 3600.0
    #: allocation strategy in the block layer ("random" is MobiCeal's;
    #: "sequential" exists for the ablation/baseline experiments)
    allocation: str = "random"
    #: whether dummy writes are enabled at all (ablation knob)
    dummy_writes_enabled: bool = True
    #: format the ext4 volume filesystems with a metadata journal.
    #: Off by default to keep the paper-calibrated I/O profile; the
    #: crash-recovery experiments turn it on.
    fs_journal: bool = False
    #: metadata device size as a fraction of the userdata partition
    metadata_fraction: float = 0.02
    #: Beta(gc_shape, 1) exponent for the GC reclaim fraction; larger means
    #: "large fraction with high probability" (Sec. IV-D)
    gc_shape: float = 5.0
    #: thin volumes' virtual size as a multiple of the data device (thin
    #: provisioning allows overcommit; every volume advertises full size)
    overcommit: float = 1.0
    #: remount /cache and /devlog as tmpfs in the hidden mode (Sec. IV-D).
    #: False models the unprotected strawman the side-channel attack beats.
    isolate_side_channels: bool = True
    #: require a reboot to leave the hidden mode (clears RAM, Sec. IV-D).
    #: False models the vulnerable hidden→public fast switch.
    one_way_switching: bool = True

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range values."""
        if self.num_volumes < 2:
            raise ConfigError("num_volumes must be >= 2 (public + at least one)")
        if self.dummy_trigger_x <= 0:
            raise ConfigError("dummy_trigger_x must be a positive integer")
        if self.dummy_rate <= 0:
            raise ConfigError("dummy_rate (lambda) must be positive")
        if self.stored_rand_refresh_s <= 0:
            raise ConfigError("stored_rand_refresh_s must be positive")
        if self.allocation not in ("random", "sequential"):
            raise ConfigError(f"unknown allocation strategy {self.allocation!r}")
        if not 0.001 <= self.metadata_fraction <= 0.25:
            raise ConfigError("metadata_fraction must be in [0.001, 0.25]")
        if self.gc_shape <= 0:
            raise ConfigError("gc_shape must be positive")
        if self.overcommit <= 0:
            raise ConfigError("overcommit must be positive")


#: The configuration of the paper's prototype evaluation.
DEFAULT_CONFIG = MobiCealConfig()
