"""MobiCealSystem: the full PDE system, orchestrated end-to-end.

This is the library's main entry point. It wires together everything the
paper's prototype builds out of a patched kernel, a modified Vold and a
modified screen lock:

* **initialize** — ``vdc cryptfs pde wipe <pub_pwd> <num_vol> <hid_pwds>``:
  LVM setup, thin-pool format with random allocation, n thin volumes,
  crypto footer, hidden-volume verifiers, ext4 on the public and hidden
  volumes, reboot (Sec. V-B);
* **boot** — pre-boot password entry: public password mounts the public
  volume; a hidden password (detected via the per-volume verifier) boots
  straight into the isolated hidden mode;
* **fast switch** — the screen-lock entrance to the hidden mode: verify the
  hidden password in Vold, stop the framework, unmount /data, /cache and
  /devlog, overlay tmpfs, mount the hidden volume, restart the framework
  warm (Sec. IV-D / V-B / V-C);
* **one-way switching** — hidden → public requires a reboot, clearing RAM;
* **garbage collection** of dummy space, hidden-mode only.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.android.footer import CryptoFooter, data_area_blocks
from repro.android.phone import Phone
from repro.android.screenlock import ScreenLock
from repro import obs
from repro.blockdev.device import BlockDevice, SubDevice
from repro.core.config import DEFAULT_CONFIG, MobiCealConfig
from repro.core.dummywrite import DummyWritePolicy
from repro.core.gc import GCResult, collect_dummy_space
from repro.crypto.kdf import derive_hidden_volume_index
from repro.crypto.stream import Blake2Ctr, constant_time_equal
from repro.dm.crypt import create_crypt_device
from repro.dm.thin.pool import PoolRecovery, ThinPool
from repro.errors import (
    BadPasswordError,
    ModeError,
    NotFormattedError,
    NotInitializedError,
    PDEError,
)
from repro.fs.ext4 import Ext4Filesystem
from repro.fs.tmpfs import TmpFilesystem
from repro.fs.vfs import Filesystem
from repro.lvm.lvm import thin_pool_lvs

#: Extra boot-time cost of the MobiCeal kernel modifications (random
#: allocator initialization, multi-volume activation); calibrated so the
#: Nexus 4 boot lands at Table II's 1.68 s.
MOBICEAL_BOOT_EXTRA_S = 0.30

#: Sector number under which the hidden-password verifier is encrypted.
#: Far outside any data sector, so the verifier never collides with
#: volume ciphertext even though it is encrypted under the same key.
_VERIFIER_SECTOR = 1 << 40

PUBLIC_VOLUME_ID = 1


class Mode(Enum):
    UNINITIALIZED = "uninitialized"
    OFFLINE = "offline"       # powered off or at the pre-boot prompt
    PUBLIC = "public"
    HIDDEN = "hidden"


class MobiCealSystem:
    """A MobiCeal-enabled phone."""

    def __init__(
        self, phone: Phone, config: MobiCealConfig = DEFAULT_CONFIG
    ) -> None:
        config.validate()
        self.phone = phone
        self.config = config
        self.mode = Mode.UNINITIALIZED
        self._pool: Optional[ThinPool] = None
        self._policy: Optional[DummyWritePolicy] = None
        self._fs: Optional[Filesystem] = None
        self._hidden_k_in_session: Optional[int] = None
        self._screenlock: Optional[ScreenLock] = None
        self._screenlock_password = "0000"
        #: recovery report of the last crash-boot (None after a clean boot)
        self.last_recovery: Optional[PoolRecovery] = None
        area = data_area_blocks(phone.userdata)
        self._meta_blocks = max(8, int(area * self.config.metadata_fraction))

    @classmethod
    def attach(
        cls,
        phone: Phone,
        config: MobiCealConfig = DEFAULT_CONFIG,
        screenlock_password: str = "0000",
    ) -> "MobiCealSystem":
        """Re-create a system object over an already-initialized medium.

        This is what happens on every real power cycle: the on-flash state
        (footer, pool metadata, volumes) persists while the in-RAM
        ``MobiCealSystem`` does not. The returned system is OFFLINE; call
        :meth:`power_on` and :meth:`boot_with_password` to use it.
        """
        system = cls(phone, config)
        system._screenlock_password = screenlock_password
        system.mode = Mode.OFFLINE
        return system

    # -- layout -----------------------------------------------------------------

    def _lvm_devices(self) -> Tuple[BlockDevice, BlockDevice]:
        """Build the metadata/data LVs the way Vold does with the LVM tools."""
        userdata = self.phone.userdata
        return thin_pool_lvs(
            userdata, data_area_blocks(userdata), self._meta_blocks
        )

    def _charge(self, seconds: float, reason: str) -> None:
        self.phone.clock.advance(seconds, reason)

    @property
    def pool(self) -> ThinPool:
        if self._pool is None:
            raise NotInitializedError("thin pool is not active")
        return self._pool

    @property
    def userdata_fs(self) -> Filesystem:
        if self._fs is None:
            raise ModeError("no userdata volume is mounted")
        return self._fs

    @property
    def hidden_volume_in_session(self) -> Optional[int]:
        return self._hidden_k_in_session

    # -- crypt helpers ---------------------------------------------------------------

    def _volume_device(self, vol_id: int, key: bytes, skip_verifier: bool):
        """dm-crypt device over thin volume *vol_id* (hidden volumes skip
        their verifier block at virtual offset 0)."""
        thin = self.pool.get_thin(vol_id)
        dev: BlockDevice = thin
        if skip_verifier:
            dev = SubDevice(thin, 1, thin.num_blocks - 1)
        return create_crypt_device(
            f"vol{vol_id}",
            dev,
            key,
            clock=self.phone.clock,
            crypto_byte_cost_s=self.phone.profile.crypto_byte_cost_s,
        )

    @staticmethod
    def _verifier_payload(password: str, block_size: int) -> bytes:
        encoded = password.encode("utf-8")
        if len(encoded) > block_size - 2:
            raise PDEError("hidden password is too long")
        return (
            len(encoded).to_bytes(2, "little")
            + encoded
            + b"\x00" * (block_size - 2 - len(encoded))
        )

    def _write_verifier(self, vol_id: int, password: str, key: bytes) -> None:
        thin = self.pool.get_thin(vol_id)
        payload = self._verifier_payload(password, thin.block_size)
        verifier = Blake2Ctr(key).encrypt_sector(_VERIFIER_SECTOR, payload)
        thin.write_block(0, verifier)

    def _check_verifier(self, vol_id: int, password: str, key: bytes) -> bool:
        thin = self.pool.get_thin(vol_id)
        stored = thin.read_block(0)
        payload = self._verifier_payload(password, thin.block_size)
        expected = Blake2Ctr(key).encrypt_sector(_VERIFIER_SECTOR, payload)
        return constant_time_equal(stored, expected)

    # -- initialization ------------------------------------------------------------------

    def initialize(
        self,
        decoy_password: str,
        hidden_passwords: Tuple[str, ...] = (),
        screenlock_password: str = "0000",
    ) -> None:
        """``vdc cryptfs pde wipe`` — set the whole system up, then reboot.

        With no hidden passwords this is the *basic* scheme degenerated to
        encryption-without-deniability (public + dummy volumes only); with
        one or more hidden passwords it is the extended scheme, each
        password protecting its own hidden volume (Sec. IV-C).
        """
        with obs.span(
            "system.initialize",
            clock=self.phone.clock,
            hidden_volumes=len(hidden_passwords),
        ):
            self._initialize_impl(
                decoy_password, hidden_passwords, screenlock_password
            )

    def _initialize_impl(
        self,
        decoy_password: str,
        hidden_passwords: Tuple[str, ...],
        screenlock_password: str,
    ) -> None:
        phone = self.phone
        if len(hidden_passwords) >= self.config.num_volumes - 1:
            raise PDEError(
                "need num_volumes - 1 slots for hidden volumes; got "
                f"{len(hidden_passwords)} passwords for "
                f"{self.config.num_volumes} volumes"
            )
        if decoy_password in hidden_passwords:
            raise PDEError("decoy and hidden passwords must differ")
        if screenlock_password in hidden_passwords:
            raise PDEError("screen-lock and hidden passwords must differ")
        self._charge(phone.profile.vold_roundtrip_s, "system.vdc")
        # the "wipe" in ``pde wipe``: a secure BLKDISCARD of the whole
        # userdata area before the volumes are built (initialization erases
        # existing data, Sec. IV-B). This is the largest size-dependent term
        # of MobiCeal's initialization time.
        area_bytes = data_area_blocks(phone.userdata) * phone.userdata.block_size
        self._charge(
            area_bytes * phone.profile.discard_byte_cost_s, "pde.wipe_discard"
        )
        self._charge(phone.profile.lvm_setup_s, "system.lvm_setup")
        meta_dev, data_dev = self._lvm_devices()

        # Footer + hidden-volume indices. If two hidden passwords collide on
        # the same k, a new salt is drawn (i.e. the footer is recreated).
        footer: Optional[CryptoFooter] = None
        decoy_key = b""
        ks: List[int] = []
        for _attempt in range(64):
            footer, decoy_key = CryptoFooter.create(decoy_password, phone.rng)
            ks = []
            for pwd in hidden_passwords:
                self._charge(phone.profile.pbkdf2_s, "crypto.pbkdf2")
                ks.append(
                    derive_hidden_volume_index(
                        pwd.encode("utf-8"), footer.salt, self.config.num_volumes
                    )
                )
            if len(set(ks)) == len(ks):
                break
        else:
            raise PDEError("could not find a collision-free salt")
        assert footer is not None
        footer.store(phone.userdata)

        pool = ThinPool.format(
            meta_dev,
            data_dev,
            allocation=self.config.allocation,
            rng=phone.rng.fork("allocator"),
            clock=phone.clock,
            costs=phone.profile.thin_costs,
        )
        self._pool = pool
        virtual = max(1, int(data_dev.num_blocks * self.config.overcommit))
        for vol_id in range(1, self.config.num_volumes + 1):
            pool.create_thin(vol_id, virtual)

        # Public volume: ext4 under the decoy key.
        self._charge(phone.profile.dmsetup_s, "system.dmsetup")
        public_dev = self._volume_device(PUBLIC_VOLUME_ID, decoy_key,
                                         skip_verifier=False)
        Ext4Filesystem(public_dev, journal=self.config.fs_journal).format()

        # Hidden volumes: verifier block + ext4 under each hidden key.
        for pwd, k in zip(hidden_passwords, ks):
            self._charge(phone.profile.pbkdf2_s, "crypto.pbkdf2")
            hidden_key = footer.unlock(pwd)
            self._write_verifier(k, pwd, hidden_key)
            self._charge(phone.profile.dmsetup_s, "system.dmsetup")
            hidden_dev = self._volume_device(k, hidden_key, skip_verifier=True)
            Ext4Filesystem(hidden_dev, journal=self.config.fs_journal).format()

        # cache and devlog partitions
        for dev in (phone.cache_dev, phone.devlog_dev):
            Ext4Filesystem(dev).format()

        pool.commit()
        self._pool = None
        self._screenlock_password = screenlock_password
        self.mode = Mode.OFFLINE
        phone.framework.reboot()

    # -- boot -----------------------------------------------------------------------------

    def _activate_pool(self, after_crash: bool = False) -> ThinPool:
        phone = self.phone
        with obs.span(
            "system.pool-activate", clock=phone.clock, after_crash=after_crash
        ):
            self._charge(phone.profile.thin_activation_s, "thin.activation")
            self._charge(MOBICEAL_BOOT_EXTRA_S, "pde.kernel_init")
            meta_dev, data_dev = self._lvm_devices()
            self.last_recovery = None
            if after_crash:
                with obs.span("system.pool-recover", clock=phone.clock):
                    pool, recovery = ThinPool.recover(
                        meta_dev,
                        data_dev,
                        allocation=self.config.allocation,
                        rng=phone.rng.fork(
                            f"allocator-boot-{phone.framework.boot_count}"
                        ),
                        clock=phone.clock,
                        costs=phone.profile.thin_costs,
                    )
                self.last_recovery = recovery
            else:
                pool = ThinPool.open(
                    meta_dev,
                    data_dev,
                    allocation=self.config.allocation,
                    rng=phone.rng.fork(
                        f"allocator-boot-{phone.framework.boot_count}"
                    ),
                    clock=phone.clock,
                    costs=phone.profile.thin_costs,
                )
        policy = DummyWritePolicy(
            self.config,
            phone.rng.fork(f"dummy-{phone.framework.boot_count}"),
            phone.clock,
            jiffies=phone.jiffies,
            trng=phone.trng,
            noise_byte_cost_s=phone.profile.prng_byte_cost_s,
        )
        pool.set_dummy_write_hook(policy.on_provision)
        self._pool = pool
        self._policy = policy
        return pool

    def boot_with_password(
        self, password: str, after_crash: bool = False
    ) -> Filesystem:
        """Pre-boot authentication: mount /data for *password*.

        Tries the public volume first (the common case); if the password
        does not decrypt it, checks whether it is a hidden password and, if
        so, boots straight into the isolated hidden mode. Raises
        :class:`BadPasswordError` otherwise. The framework is *not* started
        here — call :meth:`start_framework` (this split is what Table II's
        "booting time" measures).

        With ``after_crash=True`` the pool is opened through
        :meth:`ThinPool.recover` (roll back to the newest intact metadata
        generation, reconcile the bitmap) and the report lands in
        :attr:`last_recovery`. Filesystem-level recovery (ext4 journal
        replay) happens on mount either way.
        """
        phone = self.phone
        if self.mode in (Mode.PUBLIC, Mode.HIDDEN):
            raise ModeError("already booted; reboot first")
        if self.mode is Mode.UNINITIALIZED:
            raise NotInitializedError("initialize() the system first")
        with obs.span(
            "system.boot", clock=phone.clock, after_crash=after_crash
        ):
            pool = self._activate_pool(after_crash=after_crash)
            self._charge(phone.profile.pbkdf2_s, "crypto.pbkdf2")
            footer = CryptoFooter.load(phone.userdata)
            key = footer.unlock(password)
            self._charge(phone.profile.dmsetup_s, "system.dmsetup")
            public_dev = self._volume_device(PUBLIC_VOLUME_ID, key,
                                             skip_verifier=False)
            fs = Ext4Filesystem(public_dev)
            self._charge(phone.profile.mount_s, "system.mount")
            try:
                fs.mount()
            except NotFormattedError:
                return self._boot_hidden_fallback(password, footer, key)
            self._fs = fs
            phone.framework.mounts.mount("/data", fs)
            self._mount_log_partitions(tmpfs=False)
            self.mode = Mode.PUBLIC
            return fs

    def _boot_hidden_fallback(
        self, password: str, footer: CryptoFooter, key: bytes
    ) -> Filesystem:
        """Check *password* against the hidden-volume verifiers at boot."""
        phone = self.phone
        self._charge(phone.profile.pbkdf2_s, "crypto.pbkdf2")
        k = derive_hidden_volume_index(
            password.encode("utf-8"), footer.salt, self.config.num_volumes
        )
        if not self._check_verifier(k, password, key):
            self._teardown_pool()
            raise BadPasswordError("password matches no volume")
        self._charge(phone.profile.dmsetup_s, "system.dmsetup")
        hidden_dev = self._volume_device(k, key, skip_verifier=True)
        fs = Ext4Filesystem(hidden_dev)
        self._charge(phone.profile.mount_s, "system.mount")
        fs.mount()
        self._fs = fs
        phone.framework.mounts.mount("/data", fs)
        self._mount_log_partitions(tmpfs=self.config.isolate_side_channels)
        phone.framework.note_secret_in_ram(password)
        self._hidden_k_in_session = k
        self.mode = Mode.HIDDEN
        return fs

    def _mount_log_partitions(self, tmpfs: bool) -> None:
        """Mount /cache and /devlog — on disk (public) or tmpfs (hidden)."""
        phone = self.phone
        for mountpoint, dev in (
            ("/cache", phone.cache_dev),
            ("/devlog", phone.devlog_dev),
        ):
            if phone.framework.mounts.mounted(mountpoint):
                phone.framework.mounts.unmount(mountpoint)
            fs = TmpFilesystem() if tmpfs else Ext4Filesystem(dev)
            if tmpfs:
                fs.format()
                fs.mount()
            else:
                self._charge(phone.profile.mount_s, "system.mount")
                fs.mount()
            phone.framework.mounts.mount(mountpoint, fs)

    def start_framework(self) -> None:
        """Cold framework start after pre-boot auth, with the screen lock."""
        self.phone.framework.start_framework(warm=False)
        self._install_screenlock()

    def _install_screenlock(self) -> None:
        self._screenlock = ScreenLock(
            framework=self.phone.framework,
            lock_password=self._screenlock_password,
            pde_checker=self.switch_to_hidden,
        )

    @property
    def screenlock(self) -> ScreenLock:
        if self._screenlock is None:
            raise ModeError("framework is not running")
        return self._screenlock

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.set_dummy_write_hook(None)
        self._pool = None
        self._policy = None

    # -- fast switching (Sec. IV-D, V-B, V-C) --------------------------------------------------

    def check_hidden_password(self, password: str) -> Optional[Tuple[int, bytes]]:
        """Vold's switching check: ``(k, hidden key)`` or None (returns -1).

        Reads the salt and the encrypted decoy key from the footer, derives
        k and the candidate key, and compares the encrypted password at the
        beginning of Vk.
        """
        phone = self.phone
        self._charge(phone.profile.vold_roundtrip_s, "system.imountservice")
        footer = CryptoFooter.load(phone.userdata)
        self._charge(phone.profile.pbkdf2_s, "crypto.pbkdf2")
        k = derive_hidden_volume_index(
            password.encode("utf-8"), footer.salt, self.config.num_volumes
        )
        self._charge(phone.profile.pbkdf2_s, "crypto.pbkdf2")
        key = footer.unlock(password)
        if not self._check_verifier(k, password, key):
            return None
        return k, key

    def switch_to_hidden(self, password: str) -> bool:
        """The full fast switch, as triggered from the screen lock.

        Returns False (the screen lock shows "wrong password") if
        *password* is not a hidden password; otherwise performs the
        public→hidden switch and returns True.
        """
        phone = self.phone
        if self.mode is not Mode.PUBLIC:
            raise ModeError("fast switching starts from the public mode")
        checked = self.check_hidden_password(password)
        if checked is None:
            return False
        k, key = checked
        with obs.span("system.switch.fast", clock=phone.clock):
            # Shut down the framework: Android requires /data, so this is
            # how the public volume gets unmounted.
            phone.framework.stop_framework()
            phone.framework.mounts.unmount("/data")
            self._fs = None
            obs.mark("system.switch.data-unmounted")
            # Isolate the leak paths before the hidden volume appears.
            self._mount_log_partitions(tmpfs=self.config.isolate_side_channels)
            phone.framework.note_secret_in_ram(password)
            self._charge(phone.profile.dmsetup_s, "system.dmsetup")
            hidden_dev = self._volume_device(k, key, skip_verifier=True)
            fs = Ext4Filesystem(hidden_dev)
            self._charge(phone.profile.mount_s, "system.mount")
            fs.mount()
            obs.mark("system.switch.hidden-mounted")
            self._fs = fs
            phone.framework.mounts.mount("/data", fs)
            phone.framework.start_framework(warm=True)
            self._install_screenlock()
            self._hidden_k_in_session = k
            self.mode = Mode.HIDDEN
            return True

    def switch_to_public_unsafe(self, decoy_password: str) -> None:
        """Hidden -> public *without* rebooting — deliberately vulnerable.

        MobiCeal only supports one-way fast switching because RAM keeps
        hidden-mode residue until a power cycle. This method exists solely
        so the side-channel experiments can demonstrate that leak; it is
        disabled unless the config opts out of one-way switching.
        """
        if self.config.one_way_switching:
            raise ModeError(
                "hidden->public switching without reboot is disabled "
                "(one_way_switching=True); use reboot()"
            )
        if self.mode is not Mode.HIDDEN:
            raise ModeError("not in the hidden mode")
        phone = self.phone
        phone.framework.stop_framework()
        phone.framework.mounts.unmount("/data")
        self._fs = None
        self._mount_log_partitions(tmpfs=False)
        footer = CryptoFooter.load(phone.userdata)
        key = footer.unlock(decoy_password)
        public_dev = self._volume_device(PUBLIC_VOLUME_ID, key,
                                         skip_verifier=False)
        fs = Ext4Filesystem(public_dev)
        try:
            fs.mount()
        except NotFormattedError as exc:
            raise BadPasswordError("decoy password rejected") from exc
        self._fs = fs
        phone.framework.mounts.mount("/data", fs)
        phone.framework.start_framework(warm=True)
        self._install_screenlock()
        self._hidden_k_in_session = None
        self.mode = Mode.PUBLIC
        # NOTE: phone.framework.ram_residue still holds hidden traces.

    def reboot(self) -> None:
        """Reboot the phone (the only way out of the hidden mode)."""
        if self._pool is not None:
            self._pool.commit()
        if self._fs is not None and self._fs.mounted:
            self.phone.framework.mounts.unmount("/data")
        self._fs = None
        self._teardown_pool()
        self._hidden_k_in_session = None
        self._screenlock = None
        self.phone.framework.reboot()
        self.mode = Mode.OFFLINE

    def crash(self) -> None:
        """Sudden power loss — the in-RAM half of the system vanishes.

        Unlike :meth:`shutdown` nothing is committed, flushed or unmounted:
        mounts are dropped dirty and the pool object is discarded with its
        uncommitted allocations. What survives on the medium is whatever
        the last flush/commit made durable. Boot again with
        ``boot_with_password(..., after_crash=True)``.
        """
        if self.mode is Mode.UNINITIALIZED:
            raise NotInitializedError("initialize() the system first")
        self.phone.framework.power_fail()
        self._fs = None
        self._teardown_pool()
        self._hidden_k_in_session = None
        self._screenlock = None
        self.mode = Mode.OFFLINE

    def shutdown(self) -> None:
        """Power the phone off (e.g. before handing it to an inspector)."""
        if self._pool is not None:
            self._pool.commit()
        if self._fs is not None and self._fs.mounted:
            self.phone.framework.mounts.unmount("/data")
        self._fs = None
        self._teardown_pool()
        self._hidden_k_in_session = None
        self._screenlock = None
        self.phone.framework.shutdown()
        self.mode = Mode.OFFLINE

    def power_on(self) -> None:
        """Power up to the pre-boot prompt."""
        self.phone.framework.power_on()

    # -- user-facing file operations ------------------------------------------------------------

    def store_file(self, path: str, data: bytes) -> None:
        """Write a file in the current mode, with OS activity breadcrumbs.

        Breadcrumbs are only produced while the framework runs (apps going
        through the media scanner etc.); pre-framework writes — adb, init —
        leave none, like on a real device.
        """
        fs = self.userdata_fs
        from repro.android.framework import PhoneState
        from repro.fs.vfs import parent_and_name

        parent, _ = parent_and_name(path)
        if parent != "/" and not fs.exists(parent):
            fs.makedirs(parent)
        fs.write_file(path, data)
        if self.phone.framework.state is PhoneState.FRAMEWORK_RUNNING:
            self.phone.framework.record_file_activity(path)

    def read_file(self, path: str) -> bytes:
        return self.userdata_fs.read_file(path)

    def sync(self) -> None:
        """fsync + metadata commit, as before an expected inspection."""
        if self._fs is not None:
            self._fs.flush()
        if self._pool is not None:
            self._pool.commit()

    # -- garbage collection -----------------------------------------------------------------------

    def run_gc(self) -> GCResult:
        """Reclaim dummy space; hidden-mode only (Sec. IV-D)."""
        if self.mode is not Mode.HIDDEN:
            raise ModeError("garbage collection runs in the hidden mode only")
        assert self._hidden_k_in_session is not None
        with obs.span("system.gc", clock=self.phone.clock):
            dummy_ids = [
                vol_id
                for vol_id in self.pool.volume_ids()
                if vol_id not in (PUBLIC_VOLUME_ID, self._hidden_k_in_session)
            ]
            result = collect_dummy_space(
                self.pool,
                dummy_ids,
                self.phone.rng.fork(f"gc-{self.phone.clock.now}"),
                shape=self.config.gc_shape,
            )
            self.pool.commit()
            return result

    # -- introspection ---------------------------------------------------------------------------

    @property
    def dummy_write_stats(self):
        if self._policy is None:
            raise NotInitializedError("no dummy-write policy active (not booted)")
        return self._policy.stats

    def volume_usage(self) -> Dict[int, int]:
        """vol_id -> provisioned data blocks (what the metadata reveals)."""
        return {
            vol_id: self.pool.volume_record(vol_id).provisioned_blocks
            for vol_id in self.pool.volume_ids()
        }
