"""Cross-process metrics slab over a shared-memory segment.

The Hogwild trainer and the parallel walk engine run their hot loops in
worker processes, where the parent's :class:`~repro.obs.recorder.Recorder`
is deliberately inert (fork guard). Their telemetry travels through this
slab instead: a ``(workers × slots)`` float64 matrix in a
:class:`repro.parallel.shm.SharedArray`. Each worker owns one row and
writes it lock-free (same benign-race regime as Hogwild itself — a row
has a single writer, so there is no race at all); the parent reads the
whole slab whenever it wants a progress snapshot.

The slab rides an *existing* shared segment (usually one registered in
the trainer's ``shared_arrays()`` scope) so its lifetime — including
unlink-on-crash — is governed by the same machinery the /dev/shm leak
tests already cover.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from repro.parallel.shm import SharedArray, SharedArraySpec

__all__ = ["MetricsSlab", "MetricsSlabSpec", "HOGWILD_SLOTS", "SUPERVISOR_SLOTS"]

# Slot layout used by the Hogwild trainer's per-worker progress rows.
# "cancel" is the lifecycle flag word: the parent broadcasts 1.0 into it
# when cancellation is requested and each worker polls its own row per
# batch — the lock-free path by which a SIGTERM in the parent reaches
# loops running in other processes. "updated" is the worker's heartbeat:
# a wall-clock stamp refreshed per batch so an external monitor
# (``repro top``) can age each row without any extra IPC.
HOGWILD_SLOTS = ("batches", "examples", "loss_sum", "epoch", "cancel", "updated")

# Slot layout used by the worker supervisor's liveness rows: the last
# heartbeat timestamp (time.monotonic), items completed, total beats.
SUPERVISOR_SLOTS = ("heartbeat", "items_done", "beats")


@dataclass(frozen=True)
class MetricsSlabSpec:
    """Picklable identity of a slab: segment spec + slot names."""

    array: SharedArraySpec
    slots: tuple[str, ...]

    @property
    def workers(self) -> int:
        return int(self.array.shape[0])


class MetricsSlab:
    """A (workers × slots) shared float64 matrix of live worker metrics."""

    def __init__(
        self,
        spec: MetricsSlabSpec | None,
        array: np.ndarray,
        *,
        slots: tuple[str, ...] | None = None,
        shared: SharedArray | None = None,
    ) -> None:
        self.spec = spec
        self._array = array
        self._shared = shared  # only set for attached (worker-side) slabs
        slots = spec.slots if spec is not None else slots
        self._slot_index = {name: i for i, name in enumerate(slots)}

    # Construction -------------------------------------------------------
    @classmethod
    def over(cls, shared: SharedArray, slots: tuple[str, ...]) -> "MetricsSlab":
        """Wrap a parent-owned segment (e.g. one from a shared scope)."""
        if shared.spec.shape != (shared.spec.shape[0], len(slots)):
            raise ValueError(
                f"segment shape {shared.spec.shape} does not match "
                f"{len(slots)} slots"
            )
        shared.array[:] = 0.0
        return cls(MetricsSlabSpec(shared.spec, tuple(slots)), shared.array)

    @classmethod
    def anonymous(cls, rows: int, slots: tuple[str, ...]) -> "MetricsSlab":
        """A zeroed slab in anonymous shared memory.

        Only children forked after it share it; it has no /dev/shm name
        (``spec`` is None), so nothing can leak, and it unmaps when the
        last reference goes.
        """
        buffer = mmap.mmap(-1, rows * len(slots) * 8)
        array = np.frombuffer(buffer, dtype=np.float64).reshape(rows, len(slots))
        return cls(None, array, slots=tuple(slots))

    @classmethod
    def attach(cls, spec: MetricsSlabSpec) -> "MetricsSlab":
        """Worker-side mapping; call :meth:`close` when the shard ends."""
        shared = SharedArray.attach(spec.array)
        return cls(spec, shared.array, shared=shared)

    def close(self) -> None:
        """Release a worker-side mapping (no-op for parent-side views)."""
        if self._shared is not None:
            self._shared.close()

    def __enter__(self) -> "MetricsSlab":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # Worker-side writes ---------------------------------------------------
    def add(self, worker: int, slot: str, amount: float) -> None:
        self._array[worker, self._slot_index[slot]] += amount

    def put(self, worker: int, slot: str, value: float) -> None:
        self._array[worker, self._slot_index[slot]] = value

    def broadcast(self, slot: str, value: float) -> None:
        """Write ``value`` into ``slot`` for every worker row at once.

        Used by the parent to flip the lifecycle ``cancel`` flag. A
        whole-column numpy store with no allocation beyond the scalar,
        so it is safe to call from a signal-handler-driven callback.
        """
        self._array[:, self._slot_index[slot]] = value

    # Parent-side reads ----------------------------------------------------
    def get(self, worker: int, slot: str) -> float:
        return float(self._array[worker, self._slot_index[slot]])

    def row(self, worker: int) -> dict[str, float]:
        return {
            name: float(self._array[worker, i])
            for name, i in self._slot_index.items()
        }

    def rows(self) -> list[dict[str, float]]:
        return [self.row(w) for w in range(len(self._array))]

    def totals(self) -> dict[str, float]:
        """Column sums across workers (the aggregate progress view)."""
        sums = self._array.sum(axis=0)
        return {name: float(sums[i]) for name, i in self._slot_index.items()}

    def reset(self) -> None:
        self._array[:] = 0.0
