"""Exception hierarchy shared across the MobiCeal reproduction.

Every subsystem raises subclasses of :class:`ReproError` so that callers can
catch either the broad family (``except ReproError``) or a specific failure
mode. The hierarchy intentionally mirrors the layering of the storage stack:
device errors at the bottom, device-mapper and filesystem errors in the
middle, PDE/system errors at the top.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Block device layer
# ---------------------------------------------------------------------------


class BlockDeviceError(ReproError):
    """Base class for block-device failures."""


class OutOfRangeError(BlockDeviceError):
    """A block address fell outside the device's range."""

    def __init__(self, block: int, num_blocks: int) -> None:
        super().__init__(
            f"block {block} out of range for device with {num_blocks} blocks"
        )
        self.block = block
        self.num_blocks = num_blocks


class BadBlockSizeError(BlockDeviceError):
    """A buffer's length did not match the device block size."""

    def __init__(self, got: int, expected: int) -> None:
        super().__init__(f"buffer length {got} != block size {expected}")
        self.got = got
        self.expected = expected


class DeviceClosedError(BlockDeviceError):
    """I/O was attempted on a device that has been closed/torn down."""


class FaultInjectionError(BlockDeviceError):
    """Base class for errors raised by the fault-injection layer."""


class PowerCutError(FaultInjectionError):
    """The simulated device lost power (mid-write or at a crash point).

    Everything durably written before the cut survives; the interrupted
    write may land torn and unflushed cached writes may be dropped,
    depending on the :class:`~repro.blockdev.faults.FaultPlan`.
    """


class TransientIOError(FaultInjectionError):
    """A one-off I/O failure; the same operation may succeed on retry."""


# ---------------------------------------------------------------------------
# Crypto layer
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidKeyError(CryptoError):
    """A key had the wrong length or failed verification."""


# ---------------------------------------------------------------------------
# Device mapper / thin provisioning
# ---------------------------------------------------------------------------


class DeviceMapperError(ReproError):
    """Base class for device-mapper failures."""


class TableError(DeviceMapperError):
    """A device-mapper table was malformed (overlaps, gaps, bad targets)."""


class ThinError(DeviceMapperError):
    """Base class for thin-provisioning failures."""


class PoolExhaustedError(ThinError):
    """The thin pool ran out of free data blocks."""


class MetadataError(ThinError):
    """Thin-pool metadata was corrupt or inconsistent."""


class MetadataFullError(MetadataError):
    """The metadata device ran out of space for mappings."""


class NoSuchVolumeError(ThinError):
    """A thin volume id was not found in the pool."""


class VolumeExistsError(ThinError):
    """A thin volume id is already in use."""


# ---------------------------------------------------------------------------
# LVM
# ---------------------------------------------------------------------------


class LVMError(ReproError):
    """Base class for LVM failures."""


# ---------------------------------------------------------------------------
# Filesystem layer
# ---------------------------------------------------------------------------


class FilesystemError(ReproError):
    """Base class for filesystem failures."""


class NotFormattedError(FilesystemError):
    """Mount failed because no valid filesystem superblock was found."""


class FileNotFoundInFS(FilesystemError):
    """A path did not resolve to a file or directory."""


class FileExistsInFS(FilesystemError):
    """Creation failed because the path already exists."""


class NoSpaceError(FilesystemError):
    """The filesystem ran out of free blocks or inodes."""


class NotADirectoryFSError(FilesystemError):
    """A path component used as a directory is a regular file."""


class IsADirectoryFSError(FilesystemError):
    """A file operation was attempted on a directory."""


class DirectoryNotEmptyError(FilesystemError):
    """Directory removal was attempted on a non-empty directory."""


# ---------------------------------------------------------------------------
# Android / system layer
# ---------------------------------------------------------------------------


class AndroidError(ReproError):
    """Base class for Android-substrate failures."""


class BadPasswordError(AndroidError):
    """A password failed verification against the crypto footer."""


class FooterError(AndroidError):
    """The crypto footer was missing or corrupt."""


class VoldError(AndroidError):
    """The volume daemon rejected a command or was in the wrong state."""


class FrameworkStateError(AndroidError):
    """An operation was invalid in the current framework lifecycle state."""


# ---------------------------------------------------------------------------
# MobiCeal core
# ---------------------------------------------------------------------------


class PDEError(ReproError):
    """Base class for PDE (MobiCeal core) failures."""


class NotInitializedError(PDEError):
    """The PDE system has not been initialized yet."""


class ModeError(PDEError):
    """An operation was invalid in the current mode (public vs hidden)."""


class ConfigError(PDEError):
    """A configuration value was out of its legal range."""


# ---------------------------------------------------------------------------
# Workload engine
# ---------------------------------------------------------------------------


class WorkloadError(ReproError):
    """Base class for workload-engine failures."""


class TraceFormatError(WorkloadError):
    """A recorded workload trace was malformed or has the wrong version."""


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class ObsError(ReproError):
    """Base class for observability (``repro.obs``) failures."""


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


class BenchError(ReproError):
    """A benchmark harness invocation was unusable (e.g. a results
    directory that is missing or holds no ``BENCH_*.json`` files)."""


# ---------------------------------------------------------------------------
# PDE-as-a-service daemon
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for ``repro.server`` failures."""


class NoSuchDeviceError(ServerError):
    """A device id did not resolve to a hosted fleet device."""

    def __init__(self, device_id: object) -> None:
        super().__init__(f"no device {device_id!r} in the fleet")
        self.device_id = device_id


class DeviceExistsError(ServerError):
    """A device name is already taken in the hosted fleet."""


class BadRequestError(ServerError):
    """A request payload was malformed or failed validation."""
