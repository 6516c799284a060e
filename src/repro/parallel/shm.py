"""Shared-memory numpy arrays with a strict create/attach/cleanup lifecycle.

The Hogwild trainer and the zero-copy walk handoff both need the same
primitive: a numpy array whose buffer lives in a POSIX shared-memory
segment (``multiprocessing.shared_memory``), visible to every process
that knows its name. This module wraps that primitive so the rest of the
codebase never touches raw segments:

- :class:`SharedArray` — an ndarray view over a shared segment. Exactly
  one process *owns* the segment (the one that called :meth:`create` /
  :meth:`from_array`); owners unlink on :meth:`destroy`, attachers only
  close their mapping.
- :class:`SharedArraySpec` — the picklable handle ``(name, shape,
  dtype)`` a worker needs to :meth:`~SharedArray.attach`.
- :func:`shared_arrays` — a context manager that owns any number of
  segments and guarantees they are unlinked on exit, **including on
  exceptions** — the property the no-leaked-``/dev/shm`` tests assert.

Worker processes that die hard (SIGKILL / ``os._exit``) cannot corrupt
the lifecycle: their mapping disappears with the process, and the owner
still unlinks the name. Python's ``resource_tracker`` is shared between
a pool's parent and its workers (the pool starts it before its first
fork), so an attach in a worker does not schedule a duplicate unlink.

Segments are named ``repro-<pid>-<hex>`` — the creating process's pid is
embedded in the name so a *later* run can attribute every leftover
segment to its creator and reclaim the ones whose process is gone
(:func:`sweep_orphan_segments`, called by the run-registry startup
sweeper). The only unattributable case left is a SIGKILL of the whole
process tree before any sweep, and the next run cleans that up too.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import re
import secrets
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shared_memory

    SHM_AVAILABLE = True
except ImportError:  # pragma: no cover
    _shared_memory = None
    SHM_AVAILABLE = False

__all__ = [
    "SHM_AVAILABLE",
    "SharedArray",
    "SharedArraySpec",
    "attach_cached",
    "pid_alive",
    "release_cached",
    "shared_arrays",
    "sweep_orphan_segments",
]

#: Directory where POSIX shared memory surfaces as files on Linux.
SHM_MOUNT = "/dev/shm"

#: Segment names this package creates: ``repro-<creator pid>-<hex>``.
SEGMENT_RE = re.compile(r"^repro-(\d+)-[0-9a-f]+$")


def _segment_name() -> str:
    return f"repro-{os.getpid()}-{secrets.token_hex(4)}"


def pid_alive(pid: int) -> bool:
    """Does process ``pid`` exist (signal 0 probe; another user's counts)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


def sweep_orphan_segments() -> list[str]:
    """Unlink ``repro-<pid>-*`` /dev/shm segments whose pid is dead.

    The crash-recovery path: a run killed with SIGKILL never reaches its
    atexit sweep, leaving named segments pinned in RAM. Any later run
    calls this at startup; segments belonging to live processes are left
    alone. Returns the names removed. A no-op (empty list) where
    ``/dev/shm`` does not exist.
    """
    mount = Path(SHM_MOUNT)
    removed: list[str] = []
    try:
        entries = list(mount.iterdir())
    except OSError:  # pragma: no cover - non-Linux
        return removed
    for entry in entries:
        match = SEGMENT_RE.match(entry.name)
        if match is None or pid_alive(int(match.group(1))):
            continue
        # Direct unlink, not SharedMemory(name=...).unlink(): attaching
        # would register the segment with this process's resource
        # tracker and double-unlink at exit.
        with contextlib.suppress(OSError):
            entry.unlink()
            removed.append(entry.name)
    return removed


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable identity of a shared array: pass this to workers."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


class SharedArray:
    """A numpy array backed by a named shared-memory segment.

    Use the classmethods — the constructor is internal. The ``owner``
    flag decides what :meth:`destroy` does: owners unlink the segment,
    attachers only close their own mapping.
    """

    def __init__(
        self, shm: "_shared_memory.SharedMemory", spec: SharedArraySpec, *, owner: bool
    ) -> None:
        self._shm = shm
        self.spec = spec
        self.owner = owner
        self._array: np.ndarray | None = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
        )
        # Safety net: a SharedArray dropped without destroy() still
        # releases its OS resources at GC time instead of leaking the
        # segment until interpreter shutdown.
        self._finalizer = weakref.finalize(
            self, _release, shm, owner, spec.name
        )
        # Second safety net for *abnormal* exits that never drop the
        # reference (an exception unwinding past a bare create(), a
        # KeyboardInterrupt outside any scope): owned segments are swept
        # at interpreter exit. The pid pins the sweep to the creating
        # process — a forked worker inheriting the set must not unlink
        # names its parent still uses.
        if owner:
            self._creator_pid = os.getpid()
            _LIVE_OWNED.add(self)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, shape: tuple[int, ...], dtype) -> "SharedArray":
        """Allocate a fresh owned segment of the given shape/dtype."""
        _require_shm()
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dt.itemsize)
        shm = None
        for _ in range(8):  # token collisions are ~2**-32; retry anyway
            try:
                shm = _shared_memory.SharedMemory(
                    name=_segment_name(), create=True, size=nbytes
                )
                break
            except FileExistsError:  # pragma: no cover - astronomically rare
                continue
        if shm is None:  # pragma: no cover - fall back to an anonymous name
            shm = _shared_memory.SharedMemory(create=True, size=nbytes)
        spec = SharedArraySpec(name=shm.name, shape=tuple(shape), dtype=dt.str)
        return cls(shm, spec, owner=True)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "SharedArray":
        """Allocate an owned segment holding a copy of ``array``."""
        array = np.asarray(array)
        shared = cls.create(array.shape, array.dtype)
        shared.array[...] = array
        return shared

    @classmethod
    def attach(cls, spec: SharedArraySpec) -> "SharedArray":
        """Map an existing segment created elsewhere (non-owning)."""
        _require_shm()
        shm = _shared_memory.SharedMemory(name=spec.name)
        return cls(shm, spec, owner=False)

    # ------------------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            raise ValueError("shared array has been released")
        return self._array

    @property
    def released(self) -> bool:
        return self._array is None

    def copy(self) -> np.ndarray:
        """A private heap copy of the current contents."""
        return self.array.copy()

    def destroy(self) -> None:
        """Release the mapping; owners also unlink the segment name.

        Idempotent. After this the :attr:`array` view is invalid — take
        a :meth:`copy` first if the data must outlive the segment.
        """
        if self._array is None:
            return
        self._array = None
        self._finalizer.detach()
        _release(self._shm, self.owner, self.spec.name)

    close = destroy  # attach-side alias: closing a mapping you don't own

    # ------------------------------------------------------------------
    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self.released else ("owner" if self.owner else "attached")
        return f"SharedArray({self.spec.name!r}, {self.spec.shape}, {state})"


def _release(shm, owner: bool, name: str) -> None:
    """Close (and for owners unlink) a segment, tolerating repeats."""
    with contextlib.suppress(BufferError, OSError, ValueError):
        shm.close()
    if owner:
        with contextlib.suppress(FileNotFoundError, OSError):
            shm.unlink()


# Owned-but-unreleased segments, swept at interpreter exit. A WeakSet so
# membership never delays GC (the weakref.finalize above handles the
# dropped-reference case; this handles the still-referenced one).
_LIVE_OWNED: "weakref.WeakSet[SharedArray]" = weakref.WeakSet()


def _sweep_owned_segments() -> None:  # pragma: no cover - exercised via subprocess
    for shared in list(_LIVE_OWNED):
        if getattr(shared, "_creator_pid", None) != os.getpid():
            continue
        with contextlib.suppress(Exception):
            shared.destroy()


atexit.register(_sweep_owned_segments)


# ----------------------------------------------------------------------
# Attachment cache: long-lived pool workers (repro.parallel.persistent)
# attach the same segments once per *run*, not once per task. Keyed by
# segment name — names are unique per creation, so a hit can never alias
# a different array. Bounded FIFO: evicted (and stale) attachments are
# closed, which releases this process's mapping; the owner's unlink is
# unaffected.
# ----------------------------------------------------------------------
_ATTACH_CACHE: "dict[str, SharedArray]" = {}
_ATTACH_CACHE_MAX = 16


def attach_cached(spec: SharedArraySpec) -> SharedArray:
    """Attach ``spec``, reusing this process's previous attachment.

    Intended for worker-side hot paths that receive the same handful of
    segment handles in every task of a batch (walk chunk graphs, Hogwild
    weight matrices). The returned array must NOT be closed by the
    caller — the cache owns the mapping and closes it on eviction.
    """
    cached = _ATTACH_CACHE.get(spec.name)
    if cached is not None and not cached.released and cached.spec == spec:
        return cached
    if cached is not None:  # released, or a recycled name with a new shape
        _ATTACH_CACHE.pop(spec.name, None)
        cached.close()
    shared = SharedArray.attach(spec)
    _ATTACH_CACHE[spec.name] = shared
    while len(_ATTACH_CACHE) > _ATTACH_CACHE_MAX:
        oldest = _ATTACH_CACHE.pop(next(iter(_ATTACH_CACHE)))
        oldest.close()
    return shared


def release_cached(name: str) -> None:
    """Drop (and close) this process's cached attachment for ``name``.

    Owners call this after destroying a segment whose spec they handed
    out, so a serial-fallback execution in the owning process does not
    pin the dead segment's memory until FIFO eviction. No-op when the
    name was never cached here.
    """
    cached = _ATTACH_CACHE.pop(name, None)
    if cached is not None:
        cached.close()


def _require_shm() -> None:
    if not SHM_AVAILABLE:  # pragma: no cover - exotic platforms only
        raise RuntimeError(
            "multiprocessing.shared_memory is unavailable on this platform"
        )


@contextlib.contextmanager
def shared_arrays() -> Iterator["_SharedArrayScope"]:
    """Scope that guarantees every registered segment is destroyed.

    ::

        with shared_arrays() as scope:
            w_in = scope.from_array(model.w_in)
            ...  # segments survive worker crashes inside the block
        # everything unlinked here, even if the block raised
    """
    scope = _SharedArrayScope()
    try:
        yield scope
    finally:
        scope.destroy_all()


class _SharedArrayScope:
    """Tracks SharedArrays so teardown is a single guaranteed call."""

    def __init__(self) -> None:
        self._owned: list[SharedArray] = []

    def create(self, shape: tuple[int, ...], dtype) -> SharedArray:
        return self._track(SharedArray.create(shape, dtype))

    def from_array(self, array: np.ndarray) -> SharedArray:
        return self._track(SharedArray.from_array(array))

    def _track(self, shared: SharedArray) -> SharedArray:
        self._owned.append(shared)
        return shared

    def destroy_all(self) -> None:
        for shared in self._owned:
            shared.destroy()
        self._owned.clear()
