"""Atomic, versioned, checksummed workspace persistence.

A workspace file holds a pickled :class:`~repro.core.system.SpatialHadoop`
instance — the whole simulated HDFS plus its job history and metrics. A
bare ``pickle.dump`` over the destination is fragile in exactly the ways
HDFS's edit log is not: a crash mid-write leaves a truncated file, a
flipped byte produces an opaque ``UnpicklingError`` pages deep in the
pickle machinery, and nothing says which tool or version wrote the file.

The format wraps the pickle payload in a small header::

    REPROWS\\n | version (u8) | payload crc32 (u32 BE) | payload length (u64 BE) | payload

and writes atomically: serialise to a temp file in the destination
directory, flush + ``fsync``, then ``os.replace`` over the target — so a
reader never observes a half-written workspace. Loading verifies magic,
version, length and CRC before unpickling and raises a structured
:class:`WorkspaceError` subclass (never a raw ``UnpicklingError``).

Format v3 is v2's header over a new payload: local R-trees pickle as
flat MBR columns plus their record list, not as object graphs (see
:mod:`repro.index.rtree`). A v2 file names classes v3 no longer has, so
it is refused by its header with :class:`WorkspaceVersionError` before
any unpickling; there is no converter — recreate the workspace. A file
without the header (such as a bare pickle) is refused the same way,
without unpickling it.
"""

from __future__ import annotations

import gc
import io
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Optional, Type

MAGIC = b"REPROWS\n"
FORMAT_VERSION = 3
#: Header after the magic: version (u8), payload CRC-32 (u32), length (u64).
_HEADER = struct.Struct(">BIQ")


class WorkspaceError(Exception):
    """Base class for workspace persistence failures."""


class WorkspaceCorruptError(WorkspaceError):
    """The file is truncated, bit-flipped, or otherwise unreadable."""


class WorkspaceVersionError(WorkspaceError):
    """The file declares a format version this release cannot read."""


class WorkspaceTypeError(WorkspaceError):
    """The file decoded cleanly but does not contain a workspace object."""


def atomic_write(path: Path, *chunks: bytes, sync: bool = True) -> None:
    """Write ``chunks`` to ``path`` atomically (temp + fsync + rename).

    The bytes land in a sibling temp file first, are flushed and
    ``fsync``-ed, then renamed over the destination — so a crash at any
    point leaves either the old file or the new one, never a torn one.
    Shared by workspace persistence and run-bundle export.

    ``sync=False`` skips the fsync (the rename is still atomic against
    *process* death, which keeps the page cache; only power loss can
    tear the file then). Callers whose read path detects and tolerates
    torn files — the checkpoint journal, whose CRC framing turns a torn
    wave into a cache miss — use it to keep hot-path writes cheap.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            if sync:
                os.fsync(fh.fileno())
        os.replace(str(tmp), str(path))
    except BaseException:
        try:
            os.unlink(str(tmp))
        except OSError:
            pass
        raise


def save_workspace(sh: Any, path: Path) -> None:
    """Atomically persist ``sh`` to ``path`` in the current format."""
    path = Path(path)
    payload = pickle.dumps(sh, protocol=pickle.HIGHEST_PROTOCOL)
    header = MAGIC + _HEADER.pack(
        FORMAT_VERSION, zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
    )
    atomic_write(path, header, payload)


def load_workspace(
    path: Path, expected_type: Optional[Type] = None
) -> Any:
    """Load a workspace from ``path``, verifying header and checksum.

    Accepts current-format files only. Raises
    :class:`WorkspaceCorruptError` on truncation/bit-rot,
    :class:`WorkspaceVersionError` on a missing header or any other
    format version, and :class:`WorkspaceTypeError` when the decoded
    object is not an instance of ``expected_type``.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise WorkspaceError(f"cannot read workspace {path}: {exc}") from exc

    if not raw.startswith(MAGIC):
        raise WorkspaceVersionError(
            f"{path} is not a repro workspace (no REPROWS header); "
            "recreate the workspace"
        )
    obj = _load_framed(path, raw)

    if expected_type is not None and not isinstance(obj, expected_type):
        raise WorkspaceTypeError(
            f"{path} is not a repro workspace "
            f"(contains {type(obj).__name__})"
        )
    return obj


def _load_framed(path: Path, raw: bytes) -> Any:
    header_end = len(MAGIC) + _HEADER.size
    if len(raw) < header_end:
        raise WorkspaceCorruptError(
            f"workspace {path} is truncated (incomplete header)"
        )
    version, crc, length = _HEADER.unpack(raw[len(MAGIC):header_end])
    if version > FORMAT_VERSION:
        raise WorkspaceVersionError(
            f"workspace {path} uses format v{version}; this release "
            f"reads up to v{FORMAT_VERSION}"
        )
    if version < FORMAT_VERSION:
        raise WorkspaceVersionError(
            f"workspace {path} uses format v{version}, which this release "
            f"no longer reads (it needs v{FORMAT_VERSION}); recreate the "
            "workspace"
        )
    payload = raw[header_end:]
    if len(payload) != length:
        raise WorkspaceCorruptError(
            f"workspace {path} is truncated: header promises {length} "
            f"payload bytes, file has {len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise WorkspaceCorruptError(
            f"workspace {path} failed its checksum — the file is "
            "corrupt (run 'repro fsck --repair' after restoring a "
            "good copy, or recreate the workspace)"
        )
    try:
        return _unpickle(payload)
    except Exception as exc:
        raise WorkspaceCorruptError(
            f"workspace {path} passed its checksum but failed to "
            f"decode ({type(exc).__name__}: {exc}); it was likely "
            "written by an incompatible release"
        ) from exc


def _unpickle(payload: bytes) -> Any:
    """``pickle.loads`` with the cyclic GC paused.

    Decoding allocates hundreds of thousands of objects that all stay
    live, so the collections their allocation would trigger find nothing
    and, on a large workspace, cost as much as the decode itself.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(payload)
    finally:
        if was_enabled:
            gc.enable()


def is_workspace_file(path: Path) -> bool:
    """Cheap sniff: does ``path`` start with the workspace magic?"""
    try:
        with io.open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
