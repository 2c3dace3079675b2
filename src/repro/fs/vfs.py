"""VFS: the filesystem interface the rest of the stack programs against.

MobiCeal is "file system friendly" — any block-based filesystem can sit on
top of its encrypted thin volumes (Sec. I), because the scheme lives in the
block layer. The volumes carry an ext4-like filesystem and the Android model
mounts tmpfs beside it; workloads, examples and the Android model program
against this interface only.

Paths are absolute, ``/``-separated. All content I/O can be streamed
through :class:`FileHandle` so dd/Bonnie++-style workloads behave like the
real tools.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import FilesystemError


def split_path(path: str) -> List[str]:
    """Split an absolute path into components, validating it.

    >>> split_path('/data/app/photo.jpg')
    ['data', 'app', 'photo.jpg']
    >>> split_path('/')
    []
    """
    if not path.startswith("/"):
        raise FilesystemError(f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise FilesystemError(f"path may not contain {part!r}: {path!r}")
        if len(part) > 255:
            raise FilesystemError(f"path component too long: {part!r}")
    return parts


def parent_and_name(path: str) -> Tuple[str, str]:
    """Split ``/a/b/c`` into (``/a/b``, ``c``)."""
    parts = split_path(path)
    if not parts:
        raise FilesystemError("the root directory has no parent")
    return "/" + "/".join(parts[:-1]), parts[-1]


@dataclass(frozen=True)
class FsUsage:
    """Result of :meth:`Filesystem.statfs` (block-granular, like statvfs)."""

    block_size: int
    total_blocks: int
    free_blocks: int

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self.free_blocks

    @property
    def free_bytes(self) -> int:
        return self.free_blocks * self.block_size


@dataclass(frozen=True)
class FileStat:
    """Result of :meth:`Filesystem.stat`."""

    path: str
    is_dir: bool
    size: int
    blocks: int


class FileHandle(ABC):
    """A sequential/seekable handle on one regular file."""

    @abstractmethod
    def read(self, nbytes: int = -1) -> bytes:
        """Read up to *nbytes* from the cursor (-1 = to EOF)."""

    @abstractmethod
    def write(self, data: bytes) -> int:
        """Write *data* at the cursor, extending the file if needed."""

    @abstractmethod
    def seek(self, offset: int) -> None:
        """Move the cursor to absolute *offset*."""

    @abstractmethod
    def tell(self) -> int: ...

    @abstractmethod
    def close(self) -> None: ...

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Filesystem(ABC):
    """Common filesystem API (format, mount, namespace and file ops)."""

    #: short identifier, e.g. "ext4" / "tmpfs"
    fstype: str = "abstract"

    # -- lifecycle ----------------------------------------------------------

    @abstractmethod
    def format(self) -> None:
        """Write a fresh filesystem onto the underlying device."""

    @abstractmethod
    def mount(self) -> None:
        """Validate the superblock and attach; raises NotFormattedError."""

    @abstractmethod
    def unmount(self) -> None:
        """Flush everything and detach."""

    @property
    @abstractmethod
    def mounted(self) -> bool: ...

    def flush(self) -> None:
        """Flush dirty state to the device (fsync); default is a no-op."""

    def drop(self) -> None:
        """Detach *without* flushing — power-fail semantics.

        Dirty in-memory state is discarded; the on-disk image stays however
        the last flush left it. A no-op when already unmounted.
        """
        self._mounted = False  # type: ignore[attr-defined]

    # -- namespace ----------------------------------------------------------

    @abstractmethod
    def mkdir(self, path: str) -> None: ...

    @abstractmethod
    def rmdir(self, path: str) -> None: ...

    @abstractmethod
    def listdir(self, path: str) -> List[str]: ...

    @abstractmethod
    def exists(self, path: str) -> bool: ...

    @abstractmethod
    def stat(self, path: str) -> FileStat: ...

    @abstractmethod
    def unlink(self, path: str) -> None:
        """Delete a regular file."""

    @abstractmethod
    def rename(self, old_path: str, new_path: str) -> None:
        """Move a file or directory; fails if *new_path* exists."""

    @abstractmethod
    def statfs(self) -> "FsUsage":
        """Filesystem-level usage (total/free capacity), like statvfs."""

    # -- file content -------------------------------------------------------

    @abstractmethod
    def open(self, path: str, mode: str = "r") -> FileHandle:
        """Open a file: mode "r" (read), "w" (create/truncate), "a" (append)."""

    # -- conveniences (shared implementations) --------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        """Create/replace *path* with *data*."""
        with self.open(path, "w") as handle:
            handle.write(data)

    def append_file(self, path: str, data: bytes) -> None:
        with self.open(path, "a") as handle:
            handle.write(data)

    def read_file(self, path: str) -> bytes:
        with self.open(path, "r") as handle:
            return handle.read()

    def makedirs(self, path: str) -> None:
        """Create *path* and any missing ancestors."""
        parts = split_path(path)
        current = ""
        for part in parts:
            current += "/" + part
            if not self.exists(current):
                self.mkdir(current)

    def walk(self, path: str = "/"):
        """Yield (dirpath, dirnames, filenames) like :func:`os.walk`."""
        names = self.listdir(path)
        dirs, files = [], []
        for name in names:
            child = path.rstrip("/") + "/" + name
            if self.stat(child).is_dir:
                dirs.append(name)
            else:
                files.append(name)
        yield path, dirs, files
        for name in dirs:
            child = path.rstrip("/") + "/" + name
            yield from self.walk(child)
