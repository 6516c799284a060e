"""Worker liveness: the watchdog's policy and the heartbeat task code beats.

Every multi-worker :func:`repro.parallel.pool.parallel_map` runs on the
supervised pool in :mod:`repro.parallel.persistent`. This module holds
the pieces callers and task code see:

- :class:`SupervisorConfig` — the watchdog's policy: heartbeat deadline,
  straggler cap, respawn budget per rung of the degrade ladder, and the
  poll period.
- :class:`Heartbeat` — a pool worker's row of the pool's
  :class:`repro.obs.slab.MetricsSlab`. The worker writes
  ``time.monotonic()`` into it lock-free (single writer per row, the same
  benign-race regime as Hogwild) and reads back the ``cancel`` word the
  pool sets when the run is cancelled.
- :func:`current_heartbeat` — what instrumented loops call inside long
  items (the Hogwild batch loop, the walk stepping loop, shard tasks):
  the worker's beacon in a pool worker, :data:`NULL_HEARTBEAT` anywhere
  else, whose ``cancelled()`` reads the ambient cancel scope instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.resilience.lifecycle import current_cancel_scope

__all__ = [
    "SupervisorConfig",
    "Heartbeat",
    "NULL_HEARTBEAT",
    "current_heartbeat",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Liveness policy for a parallel map.

    Parameters
    ----------
    worker_deadline:
        Seconds of heartbeat silence after which a worker *with an
        assigned item* is declared hung and killed. Work functions that
        can legitimately run longer than this between beats should call
        ``current_heartbeat().beat()`` inside their loop (the built-in
        walk and Hogwild tasks do).
    straggler_timeout:
        Optional cap on a single item's wall time on one worker; a
        worker exceeding it is killed and the item reassigned even if
        its heartbeat is fresh. ``None`` disables the cap.
    max_respawns:
        Respawn budget per worker-count rung. Exhausting it halves the
        worker count (ultimately: serial in-process execution).
    poll_interval:
        Parent watchdog polling period in seconds.
    """

    worker_deadline: float = 30.0
    straggler_timeout: float | None = None
    max_respawns: int = 3
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.worker_deadline <= 0:
            raise ValueError("worker_deadline must be positive")
        if self.straggler_timeout is not None and self.straggler_timeout <= 0:
            raise ValueError("straggler_timeout must be positive")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


class Heartbeat:
    """Liveness beacon: one slab row, one writer, lock-free stores."""

    def __init__(self, slab: MetricsSlab, row: int) -> None:
        self._slab = slab
        self._row = row

    def beat(self) -> None:
        self._slab.put(self._row, "heartbeat", time.monotonic())
        self._slab.add(self._row, "beats", 1)

    def cancelled(self) -> bool:
        """Whether the pool has asked this worker's item to wind down."""
        return bool(self._slab.get(self._row, "cancel"))


class _NullHeartbeat:
    """The no-op beacon outside pool workers."""

    def beat(self) -> None:
        return None

    def cancelled(self) -> bool:
        # In-process (the pool's last degrade rung, a serial map): the
        # ambient scope is this process's own.
        return current_cancel_scope().cancelled()


NULL_HEARTBEAT = _NullHeartbeat()

_current_heartbeat: Heartbeat | _NullHeartbeat = NULL_HEARTBEAT


def current_heartbeat() -> Heartbeat | _NullHeartbeat:
    """The pool worker's beacon, or the no-op anywhere else.

    Instrumented hot loops call ``current_heartbeat().beat()`` — two
    float stores in a pool worker, a no-op method call otherwise.
    """
    return _current_heartbeat


def _install_heartbeat(hb: Heartbeat | _NullHeartbeat) -> None:
    global _current_heartbeat
    _current_heartbeat = hb
