"""Deterministic fault injection for testing recovery paths.

:class:`FaultInjector` wraps a callable and makes it misbehave on
command: raise on the Nth call, fail at a seeded random rate, inject
latency, or hard-kill the hosting process (``os._exit``) to simulate a
worker crash / OOM kill. Everything is deterministic — call counters
are exact and random failures derive from ``(seed, call_number)`` — so
a chaos test either always trips the recovery path or never does.

Instances are picklable (plain attributes, module-level class), so an
injector can ride into a pool worker with each item. Two details
matter for multi-process chaos:

- Call counters are **process-local**: the pickled copy a worker
  receives starts at zero. Trigger on *item values* (``fail_items`` /
  ``exit_items``) when scheduling across workers is nondeterministic.
- ``once_marker`` points at a filesystem path shared by all processes;
  a fault only fires while the marker is absent and creates it when it
  fires, giving "fail exactly once, then recover" semantics across
  retries and pool respawns.
"""

from __future__ import annotations

import errno
import os
import signal as _signal
import time
from pathlib import Path
from typing import Any, Callable, Collection

import numpy as np

from repro.obs.recorder import current_recorder

__all__ = [
    "FaultInjector",
    "InjectedFault",
    "EXIT_CODE",
    "injected_memory_bytes",
    "release_injected_memory",
]

EXIT_CODE = 13  # distinctive status for injected process death

# Allocations made by ``mem_pressure`` faults, tracked process-wide so
# tests (and the pressure watchdog's own chaos runs) can measure and
# release them. Holding real bytearrays — not a mock — means VmRSS
# actually grows, which is what the watchdog samples.
_INJECTED_ALLOCATIONS: list[bytearray] = []


def injected_memory_bytes() -> int:
    """Total bytes currently held by ``mem_pressure`` faults."""
    return sum(len(b) for b in _INJECTED_ALLOCATIONS)


def release_injected_memory() -> int:
    """Free every tracked ``mem_pressure`` allocation; returns bytes freed."""
    freed = injected_memory_bytes()
    _INJECTED_ALLOCATIONS.clear()
    return freed


class InjectedFault(RuntimeError):
    """The error raised by an injected (non-fatal) fault."""


class FaultInjector:
    """A chaotic proxy for ``fn``.

    Parameters
    ----------
    fn:
        The callable to wrap. Must be picklable for cross-process use.
    fail_on_calls:
        1-based process-local call numbers that raise
        :class:`InjectedFault`.
    exit_on_calls:
        Call numbers that terminate the process via ``os._exit`` —
        bypassing ``finally`` blocks exactly like a SIGKILL/OOM kill.
    fail_items / exit_items:
        Trigger on the first positional argument instead of the call
        counter (robust under nondeterministic work scheduling).
    failure_rate:
        Probability of an injected failure on each call, derived
        deterministically from ``(seed, call_number)``.
    delay:
        Seconds to sleep before each underlying call (latency chaos).
    hang_on_calls / hang_items:
        Trigger a *hang*: sleep ``hang_seconds`` before proceeding,
        simulating a deadlocked/livelocked worker. Under supervision the
        watchdog kills the hung process long before the sleep ends; the
        marker is written **before** sleeping so the respawned retry
        runs clean.
    hang_seconds:
        Duration of an injected hang (default one hour — effectively
        forever for a supervised test, bounded for an unsupervised one).
    corrupt_on_calls / corrupt_items:
        Trigger file corruption: the file at ``corrupt_path`` is
        truncated to half its size with every 97th remaining byte
        XOR-flipped, then the underlying call proceeds normally. Models
        a torn write / bit rot on an artifact that looks fine to the
        writer.
    corrupt_path:
        The file the ``corrupt_file`` fault mangles. Required when any
        corrupt trigger is set.
    signal_on_calls / signal_items:
        Trigger delivery of ``signal_number`` to the process that
        *constructed* the injector (the run's parent) — not the process
        executing the call — so a fault fired inside a pool or
        supervised worker still simulates "the scheduler SIGTERMed the
        job". The underlying call then proceeds normally; the run winds
        down at its next cooperative cancel check.
    signal_number:
        Signal delivered by the ``signal`` fault (default ``SIGTERM``).
    deadline_on_calls / deadline_items:
        Trigger forced expiry of the active lifecycle deadline
        (:func:`repro.resilience.lifecycle.expire_active_deadline`) in
        the calling process — chaos for ``--deadline`` runs without
        waiting out a real wall-clock budget. A no-op when no deadline
        is active.
    enospc_on_calls / enospc_items:
        Raise ``OSError(ENOSPC)`` — the exact exception a full
        filesystem produces — instead of running the wrapped callable.
        Wrap a write path (``os.fsync``, a checkpoint save) with this to
        exercise the :class:`repro.resilience.checkpoint.DiskFull`
        reclaim-and-retry machinery without actually filling a disk.
    mem_pressure_on_calls / mem_pressure_items:
        Inflate a *tracked* allocation of ``mem_pressure_bytes`` real
        bytes (VmRSS genuinely grows), then proceed with the call.
        Allocations accumulate in a module-level ledger; inspect with
        :func:`injected_memory_bytes` and free with
        :func:`release_injected_memory`. Drives the pressure watchdog's
        degradation ladder in tests without risking a real OOM kill.
    mem_pressure_bytes:
        Size of each injected allocation (default 64 MiB).
    once_marker:
        Optional path; faults fire only while it does not exist and
        create it upon firing, so a retried call succeeds.
    only_in_subprocess:
        Arm faults only when running in a process other than the one
        that constructed the injector — lets a test break *every* pool
        worker while the in-process serial fallback still succeeds.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        *,
        fail_on_calls: Collection[int] = (),
        exit_on_calls: Collection[int] = (),
        fail_items: Collection[Any] = (),
        exit_items: Collection[Any] = (),
        failure_rate: float = 0.0,
        seed: int = 0,
        delay: float = 0.0,
        hang_on_calls: Collection[int] = (),
        hang_items: Collection[Any] = (),
        hang_seconds: float = 3600.0,
        corrupt_on_calls: Collection[int] = (),
        corrupt_items: Collection[Any] = (),
        corrupt_path: str | Path | None = None,
        signal_on_calls: Collection[int] = (),
        signal_items: Collection[Any] = (),
        signal_number: int = _signal.SIGTERM,
        deadline_on_calls: Collection[int] = (),
        deadline_items: Collection[Any] = (),
        enospc_on_calls: Collection[int] = (),
        enospc_items: Collection[Any] = (),
        mem_pressure_on_calls: Collection[int] = (),
        mem_pressure_items: Collection[Any] = (),
        mem_pressure_bytes: int = 64 * 1024 * 1024,
        once_marker: str | Path | None = None,
        only_in_subprocess: bool = False,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        if hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        if (corrupt_on_calls or corrupt_items) and corrupt_path is None:
            raise ValueError("corrupt faults require corrupt_path")
        if mem_pressure_bytes <= 0:
            raise ValueError("mem_pressure_bytes must be positive")
        self.fn = fn
        self.fail_on_calls = frozenset(int(c) for c in fail_on_calls)
        self.exit_on_calls = frozenset(int(c) for c in exit_on_calls)
        self.fail_items = tuple(fail_items)
        self.exit_items = tuple(exit_items)
        self.failure_rate = float(failure_rate)
        self.seed = int(seed)
        self.delay = float(delay)
        self.hang_on_calls = frozenset(int(c) for c in hang_on_calls)
        self.hang_items = tuple(hang_items)
        self.hang_seconds = float(hang_seconds)
        self.corrupt_on_calls = frozenset(int(c) for c in corrupt_on_calls)
        self.corrupt_items = tuple(corrupt_items)
        self.corrupt_path = str(corrupt_path) if corrupt_path is not None else None
        self.signal_on_calls = frozenset(int(c) for c in signal_on_calls)
        self.signal_items = tuple(signal_items)
        self.signal_number = int(signal_number)
        self.deadline_on_calls = frozenset(int(c) for c in deadline_on_calls)
        self.deadline_items = tuple(deadline_items)
        self.enospc_on_calls = frozenset(int(c) for c in enospc_on_calls)
        self.enospc_items = tuple(enospc_items)
        self.mem_pressure_on_calls = frozenset(
            int(c) for c in mem_pressure_on_calls
        )
        self.mem_pressure_items = tuple(mem_pressure_items)
        self.mem_pressure_bytes = int(mem_pressure_bytes)
        self.once_marker = str(once_marker) if once_marker is not None else None
        self.only_in_subprocess = bool(only_in_subprocess)
        self._home_pid = os.getpid()
        self.calls = 0  # process-local

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the process-local call counter."""
        self.calls = 0

    def _armed(self) -> bool:
        if self.only_in_subprocess and os.getpid() == self._home_pid:
            return False
        if self.once_marker is None:
            return True
        return not os.path.exists(self.once_marker)

    def _mark_fired(self) -> None:
        if self.once_marker is not None:
            Path(self.once_marker).touch()

    def _random_says_fail(self, call_number: int) -> bool:
        if self.failure_rate <= 0.0:
            return False
        rng = np.random.default_rng((self.seed, call_number))
        return bool(rng.random() < self.failure_rate)

    def _should(self, calls: Collection[int], items: tuple, args: tuple) -> bool:
        if self.calls in calls:
            return True
        return bool(items) and bool(args) and args[0] in items

    def _corrupt_file(self) -> None:
        """Tear and bit-flip ``corrupt_path``: truncate to half, then XOR
        every 97th remaining byte. A no-op if the file does not exist."""
        path = Path(self.corrupt_path)
        try:
            raw = bytearray(path.read_bytes())
        except FileNotFoundError:
            return
        raw = raw[: max(len(raw) // 2, 1)]
        for i in range(0, len(raw), 97):
            raw[i] ^= 0xFF
        path.write_bytes(bytes(raw))

    # ------------------------------------------------------------------
    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        if self._armed():
            rec = current_recorder()
            if self._should(self.hang_on_calls, self.hang_items, args):
                # Mark before sleeping: a supervisor kills this process
                # mid-sleep, and the respawned retry must pass clean.
                self._mark_fired()
                rec.inc("fault.injected")
                rec.event(
                    "fault.injected", level="warning", kind="hang",
                    call=self.calls, pid=os.getpid(),
                    seconds=self.hang_seconds,
                )
                time.sleep(self.hang_seconds)
            if self._should(self.corrupt_on_calls, self.corrupt_items, args):
                self._mark_fired()
                rec.inc("fault.injected")
                rec.event(
                    "fault.injected", level="warning", kind="corrupt_file",
                    call=self.calls, pid=os.getpid(), path=self.corrupt_path,
                )
                self._corrupt_file()
            if self._should(self.signal_on_calls, self.signal_items, args):
                self._mark_fired()
                rec.inc("fault.injected")
                rec.event(
                    "fault.injected", level="warning", kind="signal",
                    call=self.calls, pid=os.getpid(),
                    target_pid=self._home_pid, signum=self.signal_number,
                )
                # Target the constructing process: a worker firing this
                # fault signals the *run*, like an external preemption.
                os.kill(self._home_pid, self.signal_number)
            if self._should(self.deadline_on_calls, self.deadline_items, args):
                from repro.resilience.lifecycle import expire_active_deadline

                self._mark_fired()
                rec.inc("fault.injected")
                rec.event(
                    "fault.injected", level="warning", kind="deadline",
                    call=self.calls, pid=os.getpid(),
                    expired=expire_active_deadline(),
                )
            if self._should(
                self.mem_pressure_on_calls, self.mem_pressure_items, args
            ):
                self._mark_fired()
                _INJECTED_ALLOCATIONS.append(bytearray(self.mem_pressure_bytes))
                rec.inc("fault.injected")
                rec.event(
                    "fault.injected", level="warning", kind="mem_pressure",
                    call=self.calls, pid=os.getpid(),
                    bytes=self.mem_pressure_bytes,
                    held=injected_memory_bytes(),
                )
            if self._should(self.enospc_on_calls, self.enospc_items, args):
                self._mark_fired()
                rec.inc("fault.injected")
                rec.event(
                    "fault.injected", level="warning", kind="enospc",
                    call=self.calls, pid=os.getpid(),
                )
                raise OSError(
                    errno.ENOSPC,
                    f"injected ENOSPC on call {self.calls} (args={args!r})",
                )
            if self._should(self.exit_on_calls, self.exit_items, args):
                self._mark_fired()
                rec.inc("fault.injected")
                rec.event(
                    "fault.injected", level="warning", kind="exit",
                    call=self.calls, pid=os.getpid(),
                )
                os._exit(EXIT_CODE)
            if self._should(self.fail_on_calls, self.fail_items, args) or (
                self._random_says_fail(self.calls)
            ):
                self._mark_fired()
                rec.inc("fault.injected")
                rec.event(
                    "fault.injected", level="warning", kind="fail",
                    call=self.calls, pid=os.getpid(),
                )
                raise InjectedFault(
                    f"injected fault on call {self.calls} (args={args!r})"
                )
        return self.fn(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector({getattr(self.fn, '__name__', self.fn)!r}, "
            f"calls={self.calls})"
        )
