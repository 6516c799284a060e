"""Chunked parallel map over picklable work items, hardened for failure.

Runs a serial loop when ``workers == 1`` (or there is a single item) and
the process-wide supervised worker pool
(:mod:`repro.parallel.persistent`) otherwise, so callers get one code
path. Work functions must be module-level (picklable); per the
mpi4py/scientific-python guides, data is passed as contiguous numpy
arrays to keep serialization cheap.

Failure semantics (see docs/resilience.md):

- An exception raised *by the work function* propagates to the caller
  unchanged — identical to the serial path.
- Worker failures — a worker killed mid-map, a hung worker, a sandbox
  that refuses to spawn processes — never lose completed items: the
  pool respawns and reassigns, then degrades to fewer workers and
  finally to a serial loop instead of crashing.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

from repro.resilience.lifecycle import current_cancel_scope

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "chunk_bounds",
    "parallel_map",
    "default_workers",
    "resolve_workers",
]


def default_workers() -> int:
    """A conservative worker count: physical-ish parallelism, at least 1.

    Prefers the CPU-affinity mask (``os.sched_getaffinity``) over the
    raw core count so containers pinned to a CPU subset don't
    oversubscribe.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux or restricted platform
        return max(1, (os.cpu_count() or 1))


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request to a concrete positive count.

    ``None`` and any value < 1 mean "auto": use :func:`default_workers`.
    Every stage (walk engine, trainer, CLI) routes through this one
    function so affinity-restricted containers are respected everywhere.
    """
    if workers is None or workers < 1:
        return default_workers()
    return int(workers)


def chunk_bounds(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``chunks`` contiguous, balanced slices.

    The first ``total % chunks`` slices get one extra element. Empty
    slices are dropped, so the result may be shorter than ``chunks``.
    """
    if total < 0 or chunks <= 0:
        raise ValueError("total must be >= 0 and chunks >= 1")
    base, extra = divmod(total, chunks)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            continue
        bounds.append((start, start + size))
        start += size
    return bounds


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int = 1,
    supervisor=None,
) -> list[R]:
    """Map ``fn`` over ``items``, in-process if ``workers == 1``.

    Results preserve input order, and an exception raised by ``fn``
    propagates from the smallest failing index, as on the serial path.

    Multi-worker maps run on the process-wide
    :class:`repro.parallel.persistent.PersistentPool`: workers are forked
    once and reused across calls, and every map is supervised under
    ``supervisor`` (a :class:`repro.resilience.supervisor.SupervisorConfig`,
    default ``SupervisorConfig()``). A dead, hung or straggling worker is
    killed and respawned and its item reassigned; when respawns exceed
    the budget the map halves its workers, down to running the remaining
    items in-process. Completed items are never recomputed, so the map
    never fails because of infrastructure alone.
    """
    pool = None
    if workers > 1 and len(items) > 1:
        from repro.parallel.persistent import get_pool

        pool = get_pool()
    if pool is None:
        scope = current_cancel_scope()
        results: list = []
        for item in items:
            scope.check()  # cooperative cancel between in-process items
            results.append(fn(item))
        return results
    from repro.resilience.supervisor import SupervisorConfig

    return pool.map(
        fn, items, workers=workers, config=supervisor or SupervisorConfig()
    )
