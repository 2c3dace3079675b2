"""Baseline: a MobiPluto-style hidden-volume PDE (single-snapshot secure).

MobiPluto (ACSAC'15, paper ref. [21]) combines the hidden-volume technique
with stock thin provisioning:

* at initialization the entire disk is **filled with randomness once** —
  the static defense all single-snapshot schemes share;
* two thin volumes over a *sequentially allocating* pool: V1 public
  (decoy key), V2 hidden (hidden key); a hidden volume's existence is
  denied by pointing at the initial random fill;
* mode switching **requires a reboot**.

It is exactly the system the multi-snapshot adversary of Sec. III-C breaks:
hidden writes change "free" random space between snapshots with nothing to
account for them. The security-game bench runs the same adversary against
this system (wins) and MobiCeal (fails).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.android.footer import CryptoFooter, data_area_blocks
from repro.android.phone import Phone
from repro.blockdev.bulk import bulk_pass
from repro.blockdev.device import BlockDevice, SubDevice
from repro.dm.crypt import create_crypt_device
from repro.dm.thin.pool import ThinPool
from repro.errors import BadPasswordError, ModeError, NotFormattedError
from repro.fs.ext4 import Ext4Filesystem
from repro.lvm.lvm import thin_pool_lvs

PUBLIC_VOLUME_ID = 1
HIDDEN_VOLUME_ID = 2

#: metadata LV fraction (same ballpark as MobiCeal's layout)
_METADATA_FRACTION = 0.02


class MobiPlutoSystem:
    """A phone running the MobiPluto-style hidden-volume scheme."""

    name = "mobipluto"

    def __init__(self, phone: Phone) -> None:
        self.phone = phone
        self._pool: Optional[ThinPool] = None
        self._fs: Optional[Ext4Filesystem] = None
        self.mode: Optional[str] = None  # None | "public" | "hidden"
        area = data_area_blocks(phone.userdata)
        self._meta_blocks = max(8, int(area * _METADATA_FRACTION))

    # -- plumbing ---------------------------------------------------------------

    def _charge(self, seconds: float, reason: str) -> None:
        self.phone.clock.advance(seconds, reason)

    def _lvm_devices(self) -> Tuple[BlockDevice, BlockDevice]:
        userdata = self.phone.userdata
        return thin_pool_lvs(
            userdata, data_area_blocks(userdata), self._meta_blocks
        )

    def _volume_device(self, vol_id: int, key: bytes):
        thin = self._pool.get_thin(vol_id)
        return create_crypt_device(
            f"mp-vol{vol_id}",
            thin,
            key,
            clock=self.phone.clock,
            crypto_byte_cost_s=self.phone.profile.crypto_byte_cost_s,
        )

    # -- lifecycle ------------------------------------------------------------------

    def initialize(self, decoy_password: str,
                   hidden_password: Optional[str] = None) -> None:
        """Random-fill the disk, build the thin volumes, reboot.

        The initial whole-disk random fill is the dominant initialization
        cost (Table II: MobiPluto 37 min vs MobiCeal ~2 min) — MobiCeal
        avoids it entirely because dummy volumes make pre-filled randomness
        unnecessary.
        """
        phone = self.phone
        area_dev = SubDevice(phone.userdata, 0, data_area_blocks(phone.userdata))
        fill_rng = phone.rng.fork("mobipluto-fill")
        bulk_pass(
            area_dev,
            phone.clock,
            phone.profile.emmc,
            read=False,
            write=True,
            extra_byte_cost_s=phone.profile.urandom_byte_cost_s,
            materialize=not phone.userdata.sparse,
            content=lambda _b: fill_rng.random_bytes(area_dev.block_size),
            reason="baseline.random_fill",
        )
        # MobiPluto builds on Android FDE, so initialization also performs
        # the inherited in-place encryption pass over userdata — together
        # with the random fill this is why its Table II init time is about
        # twice Android's.
        bulk_pass(
            area_dev,
            phone.clock,
            phone.profile.emmc,
            read=True,
            write=True,
            extra_byte_cost_s=phone.profile.crypto_byte_cost_s,
            reason="baseline.fde_encrypt",
        )
        self._charge(phone.profile.vold_roundtrip_s, "baseline.vdc")
        self._charge(phone.profile.lvm_setup_s, "baseline.lvm_setup")
        meta_dev, data_dev = self._lvm_devices()
        footer, decoy_key = CryptoFooter.create(decoy_password, phone.rng)
        footer.store(phone.userdata)
        pool = ThinPool.format(
            meta_dev,
            data_dev,
            allocation="sequential",
            clock=phone.clock,
            costs=phone.profile.thin_costs,
        )
        self._pool = pool
        pool.create_thin(PUBLIC_VOLUME_ID, data_dev.num_blocks)
        pool.create_thin(HIDDEN_VOLUME_ID, data_dev.num_blocks)
        self._charge(phone.profile.dmsetup_s, "baseline.dmsetup")
        Ext4Filesystem(self._volume_device(PUBLIC_VOLUME_ID, decoy_key)).format()
        if hidden_password is not None:
            self._charge(phone.profile.pbkdf2_s, "crypto.pbkdf2")
            hidden_key = footer.unlock(hidden_password)
            self._charge(phone.profile.dmsetup_s, "baseline.dmsetup")
            Ext4Filesystem(
                self._volume_device(HIDDEN_VOLUME_ID, hidden_key)
            ).format()
        for dev in (phone.cache_dev, phone.devlog_dev):
            Ext4Filesystem(dev).format()
        pool.commit()
        self._pool = None
        self.mode = None
        phone.framework.reboot()

    def boot_with_password(self, password: str) -> Ext4Filesystem:
        """Pre-boot auth: try the public volume, then the hidden volume."""
        phone = self.phone
        if self.mode is not None:
            raise ModeError("already booted; reboot first")
        self._charge(phone.profile.thin_activation_s, "thin.activation")
        meta_dev, data_dev = self._lvm_devices()
        self._pool = ThinPool.open(
            meta_dev,
            data_dev,
            allocation="sequential",
            clock=phone.clock,
            costs=phone.profile.thin_costs,
        )
        self._charge(phone.profile.pbkdf2_s, "crypto.pbkdf2")
        footer = CryptoFooter.load(phone.userdata)
        key = footer.unlock(password)
        for vol_id, mode in ((PUBLIC_VOLUME_ID, "public"),
                             (HIDDEN_VOLUME_ID, "hidden")):
            self._charge(phone.profile.dmsetup_s, "baseline.dmsetup")
            fs = Ext4Filesystem(self._volume_device(vol_id, key))
            self._charge(phone.profile.mount_s, "baseline.mount")
            try:
                fs.mount()
            except NotFormattedError:
                continue
            self._fs = fs
            self.mode = mode
            phone.framework.mounts.mount("/data", fs)
            # MobiPluto does NOT isolate /cache and /devlog in either mode —
            # the side-channel weakness MobiCeal fixes.
            for mountpoint, dev in (("/cache", phone.cache_dev),
                                    ("/devlog", phone.devlog_dev)):
                log_fs = Ext4Filesystem(dev)
                log_fs.mount()
                phone.framework.mounts.mount(mountpoint, log_fs)
            return fs
        self._pool = None
        raise BadPasswordError("password matches neither volume")

    def start_framework(self) -> None:
        self.phone.framework.start_framework(warm=False)

    def switch_mode(self, password: str) -> Ext4Filesystem:
        """Mode switch = full reboot + boot with the other password."""
        self.reboot()
        fs = self.boot_with_password(password)
        self.start_framework()
        return fs

    def reboot(self) -> None:
        if self._pool is not None:
            self._pool.commit()
        self._fs = None
        self._pool = None
        self.mode = None
        self.phone.framework.reboot()

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.commit()
        self._fs = None
        self._pool = None
        self.mode = None
        self.phone.framework.shutdown()

    # -- user I/O --------------------------------------------------------------------

    @property
    def userdata_fs(self) -> Ext4Filesystem:
        if self._fs is None:
            raise ModeError("no volume mounted")
        return self._fs

    def store_file(self, path: str, data: bytes) -> None:
        from repro.fs.vfs import parent_and_name

        fs = self.userdata_fs
        parent, _ = parent_and_name(path)
        if parent != "/" and not fs.exists(parent):
            fs.makedirs(parent)
        fs.write_file(path, data)
        from repro.android.framework import PhoneState

        if self.phone.framework.state is PhoneState.FRAMEWORK_RUNNING:
            self.phone.framework.record_file_activity(path)

    def read_file(self, path: str) -> bytes:
        return self.userdata_fs.read_file(path)

    def sync(self) -> None:
        if self._fs is not None:
            self._fs.flush()
        if self._pool is not None:
            self._pool.commit()
