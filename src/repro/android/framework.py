"""Android framework lifecycle and mount-namespace model.

Captures the pieces of Android userspace that the paper's timing and
side-channel experiments depend on:

* the **lifecycle state machine** — power-off, pre-boot password prompt,
  framework running/stopped — with every transition charging the profile's
  orchestration costs to the simulated clock (this is where Table II's
  boot/switch/reboot numbers come from);
* the **mount table** — ``/data``, ``/cache``, ``/devlog`` and tmpfs
  overlays, the objects MobiCeal swaps during fast switching;
* **activity breadcrumbs** — like the real OS, the framework records
  recently-used file paths into whatever is mounted at ``/data``,
  ``/cache`` and ``/devlog``. This is the side channel of Czeskis et al.
  (paper ref. [23]): if the hidden volume is used while these mounts still
  point at on-disk filesystems, hidden file names end up on disk;
* a **RAM residue model** — strings currently held in RAM, cleared only by
  a reboot. MobiCeal's one-way fast switch exists exactly because a
  hidden→public switch without reboot would leave hidden traces in RAM.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Set

from repro.android.profiles import DeviceProfile
from repro.blockdev.clock import SimClock
from repro.errors import FrameworkStateError
from repro.fs.vfs import Filesystem

#: Well-known breadcrumb files the framework appends to (one per mount).
BREADCRUMB_FILES = {
    "/data": "/system_trace.log",
    "/cache": "/recent_cache.log",
    "/devlog": "/dev_activity.log",
}


class PhoneState(Enum):
    POWER_OFF = "power_off"
    PREBOOT = "preboot"               # FDE password prompt, framework not up
    FRAMEWORK_RUNNING = "running"
    FRAMEWORK_STOPPED = "stopped"     # kernel up, framework (and /data) down


class MountTable:
    """mountpoint -> mounted filesystem."""

    def __init__(self) -> None:
        self._mounts: Dict[str, Filesystem] = {}

    def mount(self, mountpoint: str, fs: Filesystem) -> None:
        if mountpoint in self._mounts:
            raise FrameworkStateError(f"{mountpoint} is already mounted")
        if not fs.mounted:
            fs.mount()
        self._mounts[mountpoint] = fs

    def unmount(self, mountpoint: str) -> Filesystem:
        fs = self._mounts.pop(mountpoint, None)
        if fs is None:
            raise FrameworkStateError(f"{mountpoint} is not mounted")
        if fs.mounted:
            fs.unmount()
        return fs

    def get(self, mountpoint: str) -> Optional[Filesystem]:
        return self._mounts.get(mountpoint)

    def mounted(self, mountpoint: str) -> bool:
        return mountpoint in self._mounts

    def mountpoints(self) -> List[str]:
        return sorted(self._mounts)

    def unmount_all(self) -> None:
        for mountpoint in list(self._mounts):
            self.unmount(mountpoint)

    def drop_all(self) -> None:
        """Forget every mount *without* unmounting — power-fail semantics.

        Nothing is flushed: whatever the filesystems had not written out is
        lost, exactly like yanking the battery.
        """
        for fs in self._mounts.values():
            fs.drop()
        self._mounts.clear()


class AndroidFramework:
    """The framework lifecycle; one instance per simulated phone."""

    def __init__(self, clock: SimClock, profile: DeviceProfile) -> None:
        self.clock = clock
        self.profile = profile
        self.state = PhoneState.POWER_OFF
        self.mounts = MountTable()
        #: strings currently resident in RAM; cleared only by power cycle
        self.ram_residue: Set[str] = set()
        self.boot_count = 0

    # -- state helpers --------------------------------------------------------

    def _require(self, *states: PhoneState) -> None:
        if self.state not in states:
            allowed = ", ".join(s.value for s in states)
            raise FrameworkStateError(
                f"operation requires state in ({allowed}), but phone is "
                f"{self.state.value}"
            )

    # -- lifecycle transitions ---------------------------------------------------

    def power_on(self) -> None:
        """Cold boot up to the pre-boot (FDE password) prompt."""
        self._require(PhoneState.POWER_OFF)
        self.clock.advance(self.profile.kernel_boot_s, "android.kernel_boot")
        self.state = PhoneState.PREBOOT
        self.boot_count += 1

    def start_framework(self, warm: bool = False) -> None:
        """Start (or restart) the framework. ``warm`` is the fast-switch path."""
        self._require(PhoneState.PREBOOT, PhoneState.FRAMEWORK_STOPPED)
        cost = (
            self.profile.framework_restart_s
            if warm
            else self.profile.framework_cold_start_s
        )
        self.clock.advance(cost, "android.framework_start")
        self.state = PhoneState.FRAMEWORK_RUNNING

    def stop_framework(self) -> None:
        """Shut the framework down (releases /data, as Vold requires)."""
        self._require(PhoneState.FRAMEWORK_RUNNING)
        self.clock.advance(
            self.profile.framework_stop_s, "android.framework_stop"
        )
        self.state = PhoneState.FRAMEWORK_STOPPED

    def shutdown(self) -> None:
        """Full power-off: unmounts everything and clears RAM."""
        self._require(
            PhoneState.FRAMEWORK_RUNNING,
            PhoneState.FRAMEWORK_STOPPED,
            PhoneState.PREBOOT,
        )
        self.clock.advance(self.profile.shutdown_s, "android.shutdown")
        self.mounts.unmount_all()
        self.ram_residue.clear()
        self.state = PhoneState.POWER_OFF

    def reboot(self) -> None:
        """shutdown + cold boot to the password prompt."""
        self.shutdown()
        self.power_on()

    def power_fail(self) -> None:
        """Sudden power loss: no unmounts, no flushes, no clock charge.

        Valid from any state (a battery yank does not ask the framework's
        permission). Mounts are dropped dirty and RAM is cleared — what
        survives on the media is whatever the last flush made durable.
        """
        self.mounts.drop_all()
        self.ram_residue.clear()
        self.state = PhoneState.POWER_OFF

    # -- activity / side-channel model ----------------------------------------------

    def record_file_activity(self, path: str) -> None:
        """Model the OS recording a recently-used file.

        The path is appended to the breadcrumb file of every on-disk (or
        tmpfs) filesystem currently mounted at /data, /cache and /devlog,
        and noted in RAM. Whether these breadcrumbs survive on the medium
        is exactly what the side-channel experiment checks.
        """
        self._require(PhoneState.FRAMEWORK_RUNNING)
        self.ram_residue.add(path)
        for mountpoint, logfile in BREADCRUMB_FILES.items():
            fs = self.mounts.get(mountpoint)
            if fs is not None:
                fs.append_file(logfile, path.encode("utf-8") + b"\n")

    def note_secret_in_ram(self, secret: str) -> None:
        """Record that *secret* (e.g. a hidden password) touched RAM."""
        self.ram_residue.add(secret)
