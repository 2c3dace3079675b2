"""The stock Android volume daemon (Vold) with FDE support.

This models Android 4.2's cryptfs path: ``vdc cryptfs enablecrypto``
(in-place encryption of userdata, footer creation) and the boot-time mount
of the encrypted userdata partition. It is the component MobiCeal and the
hidden-volume baseline extend; the stock version is itself the "Android"
setting of the paper's Fig. 4 / Table II.
"""

from __future__ import annotations

from typing import Optional

from repro.android.footer import CryptoFooter, data_area_blocks
from repro.android.phone import Phone
from repro.blockdev.bulk import bulk_pass
from repro.blockdev.device import BlockDevice, SubDevice
from repro.dm.crypt import create_crypt_device
from repro.errors import BadPasswordError, NotFormattedError, VoldError
from repro.fs.ext4 import Ext4Filesystem


class AndroidVold:
    """Volume daemon for a stock FDE phone."""

    def __init__(self, phone: Phone) -> None:
        self.phone = phone
        self._crypt_dev: Optional[BlockDevice] = None
        self._fs: Optional[Ext4Filesystem] = None

    # -- helpers ------------------------------------------------------------

    def _charge(self, seconds: float, reason: str) -> None:
        self.phone.clock.advance(seconds, reason)

    def data_partition(self) -> SubDevice:
        """The userdata area below the crypto footer."""
        return SubDevice(
            self.phone.userdata, 0, data_area_blocks(self.phone.userdata)
        )

    def _make_crypt_device(self, key: bytes, name: str = "userdata"):
        profile = self.phone.profile
        return create_crypt_device(
            name,
            self.data_partition(),
            key,
            clock=self.phone.clock,
            crypto_byte_cost_s=profile.crypto_byte_cost_s,
        )

    # -- initialization ("vdc cryptfs enablecrypto") -----------------------------

    def enable_crypto(self, password: str) -> None:
        """Enable FDE: footer + in-place encryption pass + fresh ext4.

        The in-place pass (read every block, encrypt, write back) is the
        dominant term of Android FDE's initialization time in the paper's
        Table II; it is accounted analytically via :func:`bulk_pass`.
        """
        phone = self.phone
        self._charge(phone.profile.vold_roundtrip_s, "android.vdc")
        footer, master_key = CryptoFooter.create(password, phone.rng)
        footer.store(phone.userdata)
        data = self.data_partition()
        bulk_pass(
            data,
            phone.clock,
            phone.profile.emmc,
            read=True,
            write=True,
            extra_byte_cost_s=phone.profile.crypto_byte_cost_s,
            reason="android.fde_encrypt",
        )
        self._charge(phone.profile.dmsetup_s, "android.dmsetup")
        crypt_dev = self._make_crypt_device(master_key)
        fs = Ext4Filesystem(crypt_dev)
        fs.format()

    # -- boot path -----------------------------------------------------------------

    def mount_userdata(self, password: str) -> Ext4Filesystem:
        """Decrypt and mount /data with *password* (pre-boot auth).

        A wrong password yields a wrong master key, the ext4 magic check
        fails, and :class:`BadPasswordError` is raised — exactly Android's
        "ask for another password" loop.
        """
        phone = self.phone
        if self._fs is not None:
            raise VoldError("userdata is already mounted")
        self._charge(phone.profile.pbkdf2_s, "crypto.pbkdf2")
        footer = CryptoFooter.load(phone.userdata)
        key = footer.unlock(password)
        self._charge(phone.profile.dmsetup_s, "android.dmsetup")
        crypt_dev = self._make_crypt_device(key)
        fs = Ext4Filesystem(crypt_dev)
        self._charge(phone.profile.mount_s, "android.mount")
        try:
            fs.mount()
        except NotFormattedError as exc:
            raise BadPasswordError("password did not decrypt userdata") from exc
        self._crypt_dev = crypt_dev
        self._fs = fs
        phone.framework.mounts.mount("/data", fs)
        return fs

    def unmount_userdata(self) -> None:
        if self._fs is None:
            raise VoldError("userdata is not mounted")
        self.phone.framework.mounts.unmount("/data")
        self._fs = None
        self._crypt_dev = None

    @property
    def userdata_fs(self) -> Optional[Ext4Filesystem]:
        return self._fs
