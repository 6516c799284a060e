"""Cross-process metrics slab: one float64 row per worker.

Pooled workers run their hot loops in other processes, where the
parent's :class:`~repro.obs.recorder.Recorder` is deliberately inert
(fork guard). Their live state travels through a ``(workers × slots)``
float64 matrix instead. Each worker owns one row and writes it lock-free
(a row has a single writer, so there is no race at all); the parent
reads the whole slab whenever it wants a snapshot.

Two slabs exist, one per slot layout:

- the persistent pool's :data:`SUPERVISOR_SLOTS` rows, in anonymous
  shared memory that forked workers inherit (:meth:`MetricsSlab.anonymous`):
  each worker's heartbeat, and the ``cancel`` word, the one value the
  parent writes into a worker's row;
- the Hogwild trainer's :data:`HOGWILD_SLOTS` progress rows, over a
  segment of the trainer's ``shared_arrays()`` scope
  (:meth:`MetricsSlab.over`), so its unlink-on-crash is covered by the
  same machinery as the weights and ``repro top`` can attach it by name.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from repro.parallel.shm import SharedArray, SharedArraySpec

__all__ = ["MetricsSlab", "MetricsSlabSpec", "HOGWILD_SLOTS", "SUPERVISOR_SLOTS"]

# Slot layout used by the Hogwild trainer's per-worker progress rows,
# which `repro top` reads live. "updated" is a wall-clock stamp refreshed
# per batch so an external monitor can age each row without any extra IPC.
HOGWILD_SLOTS = ("batches", "examples", "loss_sum", "epoch", "updated")

# Slot layout used by the worker supervisor's liveness rows: the last
# heartbeat timestamp (time.monotonic), items completed, total beats, and
# the cancel flag word. The pool clears "cancel" at the start of every map
# and sets it on every row once the run is cancelled; task code polls its
# own row (``current_heartbeat().cancelled()``) — the lock-free path by
# which a signal or deadline in the parent reaches loops in other processes.
SUPERVISOR_SLOTS = ("heartbeat", "items_done", "beats", "cancel")


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

        Used by the pool to set and clear the ``cancel`` flag word.
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
