"""The process-wide pool of fork-once workers, supervised on every map.

Every multi-worker :func:`repro.parallel.pool.parallel_map` — Hogwild
epochs, walk chunk batches, shard rounds — runs here. Workers are forked
once and reused across maps, so only the first map of a run pays the
fork cost. There is one pool per process; it grows on demand and a map
uses ``min(workers, len(items))`` of its slots.

Design notes:

- Each worker is a fork child in a loop, ``recv (fn, item) -> send (ok,
  payload)``, over its own duplex pipe — never a queue shared between
  workers, because a SIGKILLed reader of a shared queue can die holding
  its feed lock and deadlock every sibling. Functions cross the pipe by
  reference (module-level callables); items must be picklable.
- Scheduling is dynamic: the parent hands each idle worker one item at a
  time and collects completions with ``multiprocessing.connection.wait``,
  so an uneven item mix load-balances itself. A function that cannot be
  pickled (say, a task monkeypatched in place) is handed over at fork
  instead: the map re-forks its workers holding it.
- **Supervision.** Each worker owns one row of a
  :class:`repro.obs.slab.MetricsSlab` in anonymous shared memory (forked
  children inherit it, so there is no /dev/shm name to leak) and installs
  that row as its :func:`~repro.resilience.supervisor.current_heartbeat`.
  At every wait tick the parent sweeps the workers. One that died has its
  in-flight item reassigned to a respawned worker; one holding an item
  whose heartbeat is older than ``worker_deadline``, or that runs past
  ``straggler_timeout``, is SIGKILLed and handled the same way.
- **Degrade ladder.** Respawns are budgeted by ``max_respawns`` per rung.
  When the budget runs out the map halves its slots; at one slot the
  remaining items run in-process. Completed items are never recomputed.
  Everything is reported as ``supervisor.*`` counters and events.
- Work-function exceptions are pickled back. Dispatch then stops, the
  in-flight items settle, and the smallest-index exception is raised —
  the serial path's semantics.
- **Threads.** Only the thread running :meth:`PersistentPool.map` touches
  the pipes. :meth:`PersistentPool.shutdown` from another thread (the
  pressure watchdog) only sets the closed flag while a map is active; the
  map sees it at its next wait tick, tears the workers down and finishes
  its remaining items in-process.
- **Cancellation.** When the ambient cancel scope fires, the map stops
  dispatching, gives in-flight items one second to return (Hogwild
  workers see the slab ``cancel`` flag), kills stragglers and raises
  through ``scope.check()``.
- **Pressure.** At guard level 2 (:func:`repro.resilience.guard.pool_allowed`
  is False) the workers are torn down at the end of every map, so no idle
  forks are kept.

Items may run more than once (a killed worker's item is reassigned), so
work functions must tolerate re-execution. Every built-in task does: walk
chunks rewrite the same rows deterministically, shard tasks are pure
replays, and a re-applied Hogwild shard is the same benign race class as
normal Hogwild updates.

Heartbeats are ``time.monotonic()`` values compared across processes,
which is valid on Linux (``CLOCK_MONOTONIC`` is system-wide).
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as _connection_wait
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Sequence

from repro.obs.recorder import current_recorder
from repro.obs.slab import SUPERVISOR_SLOTS, MetricsSlab
from repro.parallel.pool import default_workers
from repro.resilience.guard import pool_allowed
from repro.resilience.lifecycle import current_cancel_scope
from repro.resilience.supervisor import (
    Heartbeat,
    SupervisorConfig,
    _install_heartbeat,
)

__all__ = ["PersistentPool", "get_pool", "shutdown_pools"]

_UNSET = object()

# Seconds in-flight items get to return once cancellation is requested.
_CANCEL_GRACE = 1.0

# Exceptions that mean "could not spawn a worker process" — the sandbox
# analogue of a worker death, charged against the same respawn budget.
_SPAWN_ERRORS = (OSError, ValueError)


class _RemoteError:
    """A worker-side exception, shipped back as picklable payload."""

    def __init__(self, exc: BaseException) -> None:
        self.formatted = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(
                f"worker task failed with an unpicklable exception:\n"
                f"{self.formatted}"
            )
        self.exception = exc


def _worker_main(  # pragma: no cover - runs in child processes
    conn, slab: MetricsSlab, row: int, parent_ends, fork_fn: Callable
) -> None:
    """Worker loop: one task in, one result out, until the pipe closes.

    A task whose function is ``None`` runs ``fork_fn``, the function of
    the map this worker was forked for.
    """
    # Drop the parent-side pipe ends inherited at fork (this worker's and
    # its siblings'), so a dead parent reads as EOF here.
    for parent_end in parent_ends:
        parent_end.close()
    # The fork also inherits the CLI's cooperative signal_guard handlers,
    # which swallow the first SIGTERM — making Process.terminate() (and
    # the daemon sweep at interpreter exit) ineffective against a worker
    # blocked in recv. Restore default dispositions: SIGTERM kills,
    # SIGINT is ignored (the parent winds the pool down with sentinels).
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    heartbeat = Heartbeat(slab, row)
    _install_heartbeat(heartbeat)
    # Env-armed sampling profiler (REPRO_PROFILE_DIR/_HZ, exported by a
    # profiled obs session before this process forked). The cumulative
    # profile is dumped after every completed task — pooled workers
    # outlive the session, so an exit-time dump would never be collected.
    try:
        from repro.obs.profiler import dump_worker_profile, maybe_profile_worker

        profiler = maybe_profile_worker()
    except Exception:
        profiler = None
    heartbeat.beat()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        fn, item = message
        if fn is None:
            fn = fork_fn
        heartbeat.beat()
        try:
            payload = (True, fn(item))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            payload = (False, _RemoteError(exc))
        heartbeat.beat()
        slab.add(row, "items_done", 1)
        if profiler is not None:
            dump_worker_profile(profiler)
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            break
    conn.close()
    os._exit(0)


class _Worker:
    """One forked worker: its process, the parent's pipe end, its item."""

    def __init__(
        self, mp_ctx, slab: MetricsSlab, row: int, siblings, fn: Callable
    ) -> None:
        self.conn, child_conn = mp_ctx.Pipe(duplex=True)
        try:
            # Fork passes the arguments by memory, not by pickling.
            self.process = mp_ctx.Process(
                target=_worker_main,
                args=(child_conn, slab, row, [*siblings, self.conn], fn),
                daemon=True,
            )
            self.process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child_conn.close()  # the child owns its copy now
        self.item: int | None = None  # index of the item in flight
        self.since = 0.0  # when that item was sent
        self.broken = False  # the pipe failed; the next sweep reaps it

    def kill(self) -> None:
        """SIGKILL and reap; safe on an already-dead process."""
        with contextlib.suppress(OSError, ValueError):
            self.process.kill()
        self.process.join(timeout=1.0)
        self.conn.close()


class PersistentPool:
    """Long-lived fork workers with dynamic dispatch and a watchdog."""

    def __init__(self) -> None:
        self._mp_ctx = multiprocessing.get_context("fork")
        self._parent_pid = os.getpid()
        # One entry per slab row; None is a slot with no live process.
        self._workers: list[_Worker | None] = []
        self._slab: MetricsSlab | None = None
        self._lock = threading.Lock()
        self._closed = False
        self._active = False  # a map owns the pipes

    @property
    def alive(self) -> bool:
        return not self._closed and os.getpid() == self._parent_pid

    def shutdown(self) -> None:
        """Close the pool for good (idempotent, callable from any thread).

        While a map is active this only sets the flag: the map thread
        tears the workers down at its next wait tick.
        """
        with self._lock:
            self._closed = True
            if self._active:
                return
        if os.getpid() == self._parent_pid:  # never reap a parent's workers
            self._teardown()

    def _teardown(self) -> None:
        """Stop every worker: sentinel to the idle, SIGKILL to the busy."""
        with self._lock:
            workers = [w for w in self._workers if w is not None]
            self._workers = [None] * len(self._workers)
        for worker in workers:
            with contextlib.suppress(OSError, ValueError):
                if worker.item is None:
                    worker.conn.send(None)
                else:
                    worker.process.kill()
        deadline = time.monotonic() + 1.0
        for worker in workers:
            worker.process.join(timeout=max(deadline - time.monotonic(), 0.0))
            worker.kill()  # reaps; a no-op SIGKILL for a worker that exited

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        workers: int,
        config: SupervisorConfig,
    ) -> list:
        """Run ``fn`` over ``items`` on up to ``workers`` slots, in order.

        Raises the smallest-index work-function exception, or
        :class:`~repro.resilience.lifecycle.RunInterrupted` when the
        ambient cancel scope fires with items left. Items the workers
        could not finish (degrade ladder exhausted, pool shut down) run
        in-process.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        n = len(items)
        results: list = [_UNSET] * n
        with self._lock:
            if self._active:
                raise RuntimeError("a map is already running on this pool")
            self._active = run = self.alive and n > 0
        if run:
            try:
                self._supervise(fn, items, results, min(workers, n), config)
            finally:
                self._kill_busy()  # left mid-item by an exception
                with self._lock:
                    self._active = False
                    closed = self._closed
                if closed or not pool_allowed():
                    self._teardown()
        remaining = [i for i in range(n) if results[i] is _UNSET]
        if remaining:
            scope = current_cancel_scope()
            scope.check()
            rec = current_recorder()
            rec.inc("supervisor.serial_fallbacks")
            rec.event(
                "supervisor.serial_fallback",
                level="warning",
                label=_label(fn),
                pending=len(remaining),
            )
            for i in remaining:
                scope.check()
                results[i] = fn(items[i])
        return results

    def _supervise(
        self,
        fn: Callable,
        items: Sequence,
        results: list,
        slots: int,
        config: SupervisorConfig,
    ) -> None:
        """Fill ``results`` on the workers until done, closed or degraded."""
        rec = current_recorder()
        scope = current_cancel_scope()
        label = _label(fn)
        if slots > len(self._workers):
            # Live workers hold rows of the old slab: re-fork at the new size.
            self._teardown()
            rows = max(slots, default_workers())
            self._slab = MetricsSlab.anonymous(rows, SUPERVISOR_SLOTS)
            self._workers = [None] * rows
        try:
            ForkingPickler.dumps(fn)
            by_fork = False
        except (pickle.PicklingError, AttributeError, TypeError):
            # Not importable by name (say, monkeypatched in place): every
            # worker of this map must be forked holding fn instead.
            self._teardown()
            by_fork = True
        rec.set("supervisor.workers", slots)
        rec.event(
            "supervisor.start",
            level="debug",
            label=label,
            workers=slots,
            items=len(items),
        )
        todo = deque(range(len(items)))
        failures: dict[int, BaseException] = {}
        rung, respawns = slots, 0
        grace_end: float | None = None
        while not self._closed:
            now = time.monotonic()
            if grace_end is None and scope.cancelled():
                grace_end = now + _CANCEL_GRACE
                rec.inc("supervisor.cancelled")
                rec.event("supervisor.cancelled", level="warning", label=label)
                if scope.token is not None:
                    # As scope.check() does for an expired deadline, so the
                    # token's observers (the Hogwild slab broadcast) fire;
                    # a no-op when the token is what fired.
                    scope.token.cancel("deadline")
            # Liveness sweep: reap the dead, kill the hung and stragglers.
            for slot, worker in enumerate(self._workers):
                if worker is None:
                    continue
                reason = self._fault(worker, slot, now, config)
                if reason is None:
                    continue
                worker.kill()
                self._workers[slot] = None
                if worker.item is None:
                    continue  # an idle loss costs nothing; refilled on demand
                todo.appendleft(worker.item)
                respawns += 1
                rec.inc("supervisor.items_reassigned")
                rec.inc("supervisor.respawns")
                rec.event(
                    "supervisor.respawn",
                    level="warning",
                    label=label,
                    worker=slot,
                    reason=reason,
                    item=worker.item,
                    respawns=respawns,
                    budget=config.max_respawns,
                )
            if respawns > config.max_respawns and rung > 1:
                rec.inc("supervisor.degrades")
                rec.event(
                    "supervisor.degrade",
                    level="warning",
                    label=label,
                    from_workers=rung,
                    to_workers=max(rung // 2, 1),
                )
                rung, respawns = max(rung // 2, 1), 0
            if grace_end is not None and now >= grace_end:
                self._kill_busy()  # stragglers past the cancel grace
                break
            dispatching = rung > 1 and not failures and grace_end is None
            if dispatching:
                respawns += self._dispatch(
                    fn, by_fork, items, todo, rung, now, label
                )
            busy = [w for w in self._workers if w is not None and w.item is not None]
            if not busy:
                if not (todo and dispatching):
                    break
                time.sleep(config.poll_interval)  # no worker could be spawned
                continue
            live = {w.conn: w for w in busy if not w.broken}
            for conn in _connection_wait(list(live), timeout=config.poll_interval):
                worker = live[conn]
                try:
                    ok, payload = conn.recv()
                except (EOFError, OSError):
                    worker.broken = True
                    continue
                idx, worker.item = worker.item, None
                rec.observe("supervisor.item_seconds", time.monotonic() - worker.since)
                if ok:
                    results[idx] = payload
                else:
                    failures[idx] = payload.exception
        if failures:
            raise failures[min(failures)]

    def _dispatch(
        self,
        fn: Callable,
        by_fork: bool,
        items: Sequence,
        todo: deque,
        rung: int,
        now: float,
        label: str,
    ) -> int:
        """Hand one item to each idle slot below ``rung``, spawning as needed.

        ``by_fork`` sends ``None`` for ``fn``, which the workers then
        hold from their fork. Returns the number of failed spawns, which
        the caller charges to the rung's respawn budget.
        """
        failed = 0
        for slot in range(rung):
            if not todo:
                break
            worker = self._workers[slot]
            if worker is None:
                siblings = [w.conn for w in self._workers if w is not None]
                try:
                    worker = _Worker(
                        self._mp_ctx, self._slab, slot, siblings, fn
                    )
                except _SPAWN_ERRORS:
                    failed += 1
                    current_recorder().event(
                        "supervisor.spawn_failed",
                        level="warning",
                        worker=slot,
                        label=label,
                    )
                    continue
                self._workers[slot] = worker
            if worker.item is not None:
                continue
            worker.item, worker.since = todo.popleft(), now
            try:
                worker.conn.send((None if by_fork else fn, items[worker.item]))
            except (OSError, ValueError):
                worker.broken = True  # reaped and reassigned by the sweep
        return failed

    def _kill_busy(self) -> None:
        for slot, worker in enumerate(self._workers):
            if worker is not None and worker.item is not None:
                worker.kill()
                self._workers[slot] = None

    def _fault(
        self, worker: _Worker, slot: int, now: float, config: SupervisorConfig
    ) -> str | None:
        """Why the sweep must kill ``worker`` now, or None."""
        if worker.broken or not worker.process.is_alive():
            return "died"
        if worker.item is None:
            return None
        # Dispatch counts as a beat: an idle worker's row is stale.
        last_beat = max(self._slab.get(slot, "heartbeat"), worker.since)
        if now - last_beat > config.worker_deadline:
            return "hung"
        straggler = config.straggler_timeout
        if straggler is not None and now - worker.since > straggler:
            return "straggler"
        return None


def _label(fn: Callable) -> str:
    return getattr(fn, "__name__", type(fn).__name__)


# ----------------------------------------------------------------------
# The process-wide pool: created on first use, shut down at exit (or
# explicitly between pipeline runs and by the pressure ladder).
# ----------------------------------------------------------------------
_POOL: PersistentPool | None = None
_REGISTRY_LOCK = threading.Lock()


def get_pool() -> PersistentPool | None:
    """The shared pool, or ``None`` where worker processes are unusable.

    ``None`` inside a forked child (a child must never talk to its
    parent's pipes) and on platforms without the fork start method.
    """
    global _POOL
    pool = _POOL
    if pool is not None and os.getpid() != pool._parent_pid:
        return None
    with _REGISTRY_LOCK:
        if _POOL is None or not _POOL.alive:
            try:
                _POOL = PersistentPool()
            except ValueError:
                return None
        return _POOL


def shutdown_pools() -> None:
    """Tear down the pooled workers (idempotent; used at run/exit)."""
    global _POOL
    with _REGISTRY_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


atexit.register(shutdown_pools)
