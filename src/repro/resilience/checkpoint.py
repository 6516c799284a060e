"""Atomic checkpoint files for pipeline state.

A checkpoint is a single ``.npz`` holding named numpy arrays plus a
JSON metadata record (stored as a ``__meta__`` uint8 buffer, the same
trick :func:`repro.graph.io.save_graph` uses). Writes are atomic:

    serialize to memory → write ``<name>.tmp.<pid>`` → flush → fsync
    → ``os.replace`` onto the final name

``os.replace`` is atomic on POSIX and Windows, so a reader (including a
resuming run) only ever sees either the previous complete checkpoint or
the new complete checkpoint — never a torn file. A crash mid-write
leaves at most a stale ``*.tmp.*`` file, which the manager sweeps.
After the replace the **parent directory** is fsynced too: a rename is
only durable once the directory entry itself reaches disk, so without
it a power loss right after ``os.replace`` could roll the directory
back to the old (or no) entry even though the data blocks were synced.

Every checkpoint also embeds an integrity record — a SHA-256 digest
over all array payloads plus the metadata, and a per-array CRC32 —
inside its ``__meta__`` JSON (reserved key ``__integrity__``). Loads
verify it and raise the typed :class:`CheckpointCorrupt` on any
mismatch, truncation, or unreadable container, so callers can tell a
*corrupt* checkpoint apart from a *missing* one (``FileNotFoundError``)
and quarantine instead of crash: :meth:`CheckpointManager.load_if_exists`
moves a bad file to ``<file>.corrupt.<ts>`` and returns ``None``, which
resuming phases treat as "start fresh".

Disk-full behaviour: an ``ENOSPC`` anywhere in the write path becomes
the typed :class:`DiskFull`. Before giving up, the write garbage-collects
the reclaimable artifacts under the destination's directory tree —
quarantined ``*.corrupt.<ts>`` snapshots and stale ``*.tmp.<pid>``
leftovers (:func:`reclaim_disk`) — and retries exactly once; only a
second ``ENOSPC`` propagates. The temporary file is unlinked on *every*
failure path, so a failed write can never strand a ``.tmp`` file that
itself eats the disk the next write needs.

:class:`CheckpointManager` scopes named checkpoints to a directory and
is what the walk engine and trainer thread through the stack.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.obs.logging import get_logger
from repro.obs.recorder import current_recorder

__all__ = [
    "Checkpoint",
    "CheckpointCorrupt",
    "CheckpointManager",
    "DiskFull",
    "atomic_write_bytes",
    "reclaim_disk",
    "save_checkpoint",
    "load_checkpoint",
    "integrity_record",
    "verify_integrity",
]

_META_KEY = "__meta__"
_INTEGRITY_KEY = "__integrity__"
_SUFFIX = ".ckpt.npz"

_log = get_logger("resilience.checkpoint")


class DiskFull(OSError):
    """The filesystem under a checkpoint/manifest path ran out of space.

    Raised (after one reclaim-and-retry pass) when a durable write hits
    ``ENOSPC``. A typed subclass of ``OSError`` so generic ``except
    OSError`` cleanup still works, while the guard subsystem and CLI can
    match it specifically and report *which* path filled up.
    """

    run_reason = "disk_full"  # see lifecycle.run_outcome

    def __init__(self, path: str | Path, detail: str = "") -> None:
        msg = f"disk full writing {path}"
        if detail:
            msg += f": {detail}"
        super().__init__(errno.ENOSPC, msg)
        self.path = Path(path)
        self.detail = detail


class CheckpointCorrupt(RuntimeError):
    """A checkpoint/model file exists but cannot be trusted.

    Raised for unreadable containers (torn zip, truncated file) and for
    integrity-record mismatches (bit rot). Distinct from
    ``FileNotFoundError`` — *missing* is a normal first-run state,
    *corrupt* is an artifact that must be quarantined.
    """

    def __init__(self, path: str | Path, reason: str) -> None:
        super().__init__(f"corrupt checkpoint {path}: {reason}")
        self.path = Path(path)
        self.reason = reason


def _canonical_meta_bytes(meta: dict[str, Any]) -> bytes:
    """Deterministic JSON encoding of user metadata for digesting.

    ``sort_keys`` fixes ordering and JSON round-trips floats/ints/str
    exactly, so the bytes are identical when recomputed from a loaded
    meta dict (tuples serialize as JSON arrays on both sides).
    """
    return json.dumps(meta, sort_keys=True).encode()


def integrity_record(
    arrays: dict[str, np.ndarray], meta_bytes: bytes = b""
) -> dict[str, Any]:
    """Checksums for a set of named arrays plus a metadata blob.

    Returns ``{"algo", "digest", "crc32"}``: one SHA-256 over every
    array's name/dtype/shape/payload (in sorted-name order) and the
    metadata bytes, plus a per-array CRC32 so a mismatch can be pinned
    to the array that rotted.
    """
    digest = hashlib.sha256()
    crcs: dict[str, int] = {}
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        raw = arr.tobytes()
        digest.update(name.encode())
        digest.update(arr.dtype.str.encode())
        digest.update(repr(arr.shape).encode())
        digest.update(raw)
        crcs[name] = zlib.crc32(raw)
    digest.update(meta_bytes)
    return {"algo": "sha256", "digest": digest.hexdigest(), "crc32": crcs}


def verify_integrity(
    arrays: dict[str, np.ndarray],
    record: dict[str, Any],
    *,
    meta_bytes: bytes = b"",
    path: str | Path = "<memory>",
) -> None:
    """Check ``arrays``/``meta_bytes`` against a stored integrity record.

    Raises :class:`CheckpointCorrupt` naming the offending arrays (via
    their CRC32s) or the metadata when the SHA-256 does not match.
    """
    actual = integrity_record(arrays, meta_bytes)
    if actual["digest"] == record.get("digest"):
        return
    stored_crcs = record.get("crc32", {})
    bad = sorted(
        name
        for name, crc in actual["crc32"].items()
        if stored_crcs.get(name) != crc
    )
    missing = sorted(set(stored_crcs) - set(actual["crc32"]))
    if bad or missing:
        parts = []
        if bad:
            parts.append(f"checksum mismatch in arrays {bad}")
        if missing:
            parts.append(f"missing arrays {missing}")
        reason = "; ".join(parts)
    else:
        reason = "metadata does not match its digest"
    raise CheckpointCorrupt(path, reason)


@dataclass(frozen=True)
class Checkpoint:
    """An in-memory checkpoint: named arrays plus a JSON-able meta dict."""

    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)


# Reclaimable write artifacts: our own tmp files (``<name>.tmp.<pid>``)
# and quarantined corrupt snapshots (``<name>.corrupt.<ts>[.<n>]``).
# Anchored patterns so a GC pass in an arbitrary directory can never
# match user data that merely contains ".tmp" somewhere.
_TMP_RE = re.compile(r"\.tmp\.\d+$")
_CORRUPT_RE = re.compile(r"\.corrupt\.\d+(\.\d+)?$")


def _is_enospc(exc: OSError) -> bool:
    return exc.errno == errno.ENOSPC


def reclaim_disk(root: str | Path) -> int:
    """Garbage-collect reclaimable artifacts under ``root``, recursively.

    Removes stale ``*.tmp.<pid>`` leftovers from crashed writes and
    quarantined ``*.corrupt.<ts>`` snapshots — both are dead weight once
    the disk is full, and neither is ever read by a resume. Returns the
    number of bytes freed. Never raises: an unremovable file is skipped.
    """
    root = Path(root)
    if not root.is_dir():
        return 0
    freed = 0
    for p in root.rglob("*"):
        name = p.name
        if not (_TMP_RE.search(name) or _CORRUPT_RE.search(name)):
            continue
        try:
            size = p.stat().st_size
            p.unlink()
        except OSError:
            continue
        freed += size
    if freed:
        rec = current_recorder()
        rec.inc("checkpoint.disk_reclaimed_bytes", freed)
        rec.event(
            "checkpoint.disk_reclaimed",
            level="warning",
            root=str(root),
            bytes=freed,
        )
    return freed


def _atomic_write_once(path: Path, data: bytes) -> None:
    """One attempt at tmp → fsync → replace → dir-fsync.

    The temporary file is unlinked on *every* failure path — including
    a failed ``open`` that never created it (``missing_ok``) and cleanup
    errors on a sick filesystem (suppressed so they never mask the
    original exception). ``ENOSPC`` is translated to :class:`DiskFull`.
    """
    tmp = path.parent / f"{path.name}.tmp.{os.getpid()}"
    rec = current_recorder()
    try:
        with rec.time("checkpoint.write_seconds"):
            with tmp.open("wb") as fh:
                fh.write(data)
                fh.flush()
                with rec.time("checkpoint.fsync_seconds"):
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
            _fsync_dir(path.parent)
        rec.inc("checkpoint.bytes", len(data))
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        if _is_enospc(exc):
            raise DiskFull(path, str(exc)) from exc
        raise
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically and durably.

    tmp → flush → fsync(file) → ``os.replace`` → fsync(directory). The
    temporary file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename (the only portable way to
    make it atomic). The directory fsync is what makes the rename
    *durable*: until the directory entry reaches disk, a power loss can
    resurrect the old file (or none) even though the data blocks were
    synced. Platforms where directories cannot be opened/fsynced
    (e.g. Windows) skip that step — the replace is still atomic there.

    On ``ENOSPC`` the write garbage-collects reclaimable artifacts in
    the destination tree (:func:`reclaim_disk`) and retries once; a
    second failure raises :class:`DiskFull`. The temp file never
    survives a failed write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        _atomic_write_once(path, data)
    except DiskFull:
        rec = current_recorder()
        rec.inc("checkpoint.enospc")
        rec.event(
            "checkpoint.enospc",
            level="warning",
            path=str(path),
            action="reclaim_and_retry",
        )
        reclaim_disk(path.parent)
        _atomic_write_once(path, data)


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry to disk; a no-op where unsupported."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def save_checkpoint(
    path: str | Path,
    arrays: dict[str, np.ndarray] | None = None,
    meta: dict[str, Any] | None = None,
) -> None:
    """Atomically write a checkpoint file.

    ``meta`` must be JSON-serializable; Python ints of any size are fine
    (numpy RNG states carry 128-bit integers). An integrity record
    (SHA-256 + per-array CRC32) is embedded under the reserved
    ``__integrity__`` meta key and verified by :func:`load_checkpoint`.
    """
    arrays = dict(arrays or {})
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    meta = dict(meta or {})
    if _INTEGRITY_KEY in meta:
        raise ValueError(f"meta key {_INTEGRITY_KEY!r} is reserved")
    meta[_INTEGRITY_KEY] = integrity_record(arrays, _canonical_meta_bytes(meta))
    payload = json.dumps(meta).encode()
    arrays[_META_KEY] = np.frombuffer(payload, dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    data = buf.getvalue()
    atomic_write_bytes(path, data)
    rec = current_recorder()
    if rec.enabled:
        rec.inc("checkpoint.saves")
        rec.event(
            "checkpoint.saved", level="debug", path=str(path), bytes=len(data)
        )


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and verify a checkpoint written by :func:`save_checkpoint`.

    Raises ``FileNotFoundError`` when the file is missing and
    :class:`CheckpointCorrupt` when it exists but is torn, truncated,
    not an npz, or fails its embedded integrity record. Checkpoints
    written before integrity records existed load without verification.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = (
                json.loads(bytes(data[_META_KEY]).decode())
                if _META_KEY in data
                else {}
            )
            arrays = {k: data[k] for k in data.files if k != _META_KEY}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError) as exc:
        raise CheckpointCorrupt(path, f"unreadable container: {exc}") from exc
    record = meta.pop(_INTEGRITY_KEY, None) if isinstance(meta, dict) else None
    if record is not None:
        verify_integrity(
            arrays, record, meta_bytes=_canonical_meta_bytes(meta), path=path
        )
    return Checkpoint(arrays=arrays, meta=meta)


class CheckpointManager:
    """Named checkpoints under one directory.

    Each name maps to ``<dir>/<name>.ckpt.npz``; saves go through
    :func:`save_checkpoint`, so every named slot is individually atomic.
    The directory is created lazily on first save.
    """

    def __init__(self, directory: str | Path) -> None:
        self._dir = Path(directory)

    @property
    def directory(self) -> Path:
        return self._dir

    def path_for(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid checkpoint name {name!r}")
        return self._dir / f"{name}{_SUFFIX}"

    def exists(self, name: str) -> bool:
        return self.path_for(name).exists()

    def save(
        self,
        name: str,
        arrays: dict[str, np.ndarray] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> Path:
        path = self.path_for(name)
        save_checkpoint(path, arrays, meta)
        return path

    def load(self, name: str) -> Checkpoint:
        return load_checkpoint(self.path_for(name))

    def load_if_exists(self, name: str) -> Checkpoint | None:
        """The resume entry point: missing → None, corrupt → quarantine.

        A corrupt checkpoint is moved aside (``<file>.corrupt.<ts>``),
        logged, and reported as absent so the calling phase restarts
        cleanly instead of crashing on a torn file.
        """
        try:
            return self.load(name)
        except FileNotFoundError:
            return None
        except CheckpointCorrupt as exc:
            quarantined = self.quarantine(name)
            current_recorder().inc("checkpoint.corrupt")
            _log.warning(
                "checkpoint.quarantined",
                name=name,
                reason=exc.reason,
                quarantined_to=str(quarantined) if quarantined else None,
            )
            return None

    def quarantine(self, name: str) -> Path | None:
        """Move a suspect checkpoint to ``<file>.corrupt.<ts>``.

        Returns the quarantine path, or ``None`` if the file vanished
        first. Quarantined files keep their bytes for post-mortems but
        no longer match the ``.ckpt.npz`` suffix, so :meth:`names` and
        resume scans ignore them.
        """
        path = self.path_for(name)
        stamp = int(time.time())
        for attempt in range(100):
            suffix = f".corrupt.{stamp}"
            if attempt:
                suffix += f".{attempt}"
            target = path.with_name(path.name + suffix)
            if target.exists():
                continue
            try:
                os.replace(path, target)
            except FileNotFoundError:
                return None
            return target
        raise RuntimeError(f"could not find a free quarantine name for {path}")

    def delete(self, name: str) -> None:
        self.path_for(name).unlink(missing_ok=True)

    def names(self) -> list[str]:
        """Completed checkpoint names, sorted (tmp leftovers excluded)."""
        if not self._dir.is_dir():
            return []
        return sorted(
            p.name[: -len(_SUFFIX)]
            for p in self._dir.iterdir()
            if p.name.endswith(_SUFFIX)
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def sweep_tmp(self) -> int:
        """Remove stale ``*.tmp.*`` leftovers from crashed writes."""
        if not self._dir.is_dir():
            return 0
        removed = 0
        for p in self._dir.iterdir():
            if ".tmp." in p.name and p.name.split(".tmp.")[0].endswith(".npz"):
                p.unlink(missing_ok=True)
                removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointManager({str(self._dir)!r}, {len(self.names())} saved)"
