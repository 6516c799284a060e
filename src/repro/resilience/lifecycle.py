"""Run lifecycle control: deadlines, cooperative cancellation, signals.

Long-running embedding jobs get preempted: a scheduler sends SIGTERM, an
operator hits Ctrl-C, a wall-clock budget expires. Before this module
the process died wherever it happened to be — leaking ``/dev/shm``
segments, orphaning Hogwild workers, and losing everything since the
last checkpoint. Lifecycle control turns all of those endings into one
*cooperative* shutdown path:

- a :class:`CancellationToken` is flipped exactly once (by a signal
  handler, a deadline timer, or library code) and never unflipped;
- hot loops — walk stepping, sentence batches, Hogwild epoch shards,
  the supervisor watchdog — poll the ambient :class:`CancelScope` and
  raise :class:`RunInterrupted` at the next checkpointable boundary;
- the owners of durable state (trainer, chunked walk engine) write a
  final integrity-covered checkpoint *before* raising, so ``--resume``
  replays from the boundary and produces bitwise-identical output;
- :func:`run_outcome` maps whatever ended a run to its status, reason
  and exit code — **130** for an interrupt (128+SIGINT), **124** for a
  deadline (``timeout(1)``'s convention), **2** for a typed failure —
  once, for the manifest, the run journal and the process status alike.

The ambient-scope pattern mirrors ``current_heartbeat`` in
:mod:`repro.resilience.supervisor`: entry points activate a scope via
:func:`cancel_scope`, and deeply nested loops read it back with
:func:`current_cancel_scope` — no threading of the token through every
signature. Scopes are inherited by forked workers (module globals and
the monotonic deadline survive ``fork``), so a chunk task running in a
pool worker observes the same deadline the parent armed. A token flipped
after the fork is not seen there: the pool relays it instead, setting the
``cancel`` word of each worker's heartbeat row
(:meth:`repro.resilience.supervisor.Heartbeat.cancelled`) once its wait
loop sees the scope fire.

Signal semantics (:func:`signal_guard`): the *first* SIGTERM/SIGINT
requests cancellation; a *second* signal hard-exits with ``128+signum``
immediately — the escape hatch when cooperative shutdown is stuck. The
handler body only flips the token; it never logs or allocates, keeping
it safe at any interruption point. The CLI holds the guard from the
journal open to the journal close and seals the outcome with one
:meth:`CancelScope.check` right after the command returns: a signal
before the seal makes the run ``interrupted``, one after it is ignored.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from typing import Any, Iterator

__all__ = [
    "CancellationToken",
    "Deadline",
    "CancelScope",
    "RunInterrupted",
    "CommandFailed",
    "run_outcome",
    "NULL_SCOPE",
    "cancel_scope",
    "current_cancel_scope",
    "expire_active_deadline",
    "signal_guard",
    "EXIT_INTERRUPTED",
    "EXIT_DEADLINE",
    "EXIT_FAILED",
]

# Conventional exit codes: 128+SIGINT for interrupts, timeout(1)'s 124
# for an expired wall-clock budget, 2 for a typed failure.
EXIT_INTERRUPTED = 130
EXIT_DEADLINE = 124
EXIT_FAILED = 2


class RunInterrupted(RuntimeError):
    """Cooperative shutdown in flight: the run stopped at a boundary.

    Raised by :meth:`CancelScope.check` once cancellation is requested
    or the deadline expires. By the time it propagates, the raising
    engine has already written its final checkpoint (or had nothing to
    save); callers should release resources and let it reach the CLI,
    which maps :attr:`exit_code` to the process status.
    """

    def __init__(self, reason: str = "cancelled", *, detail: str | None = None):
        message = f"run interrupted ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.reason = reason
        self.detail = detail

    @property
    def exit_code(self) -> int:
        return EXIT_DEADLINE if self.reason == "deadline" else EXIT_INTERRUPTED


class CommandFailed(Exception):
    """A command returned a nonzero status.

    Raised inside the run's observability session, so the manifest
    records the same ``failed``/``exit_<code>`` outcome as the journal.
    """

    def __init__(self, exit_code: int) -> None:
        super().__init__(f"command exited {exit_code}")
        self.exit_code = exit_code


def run_outcome(exc: BaseException | None) -> tuple[str, str | None, int | None]:
    """How a run ended, as ``(status, reason, exit_code)``.

    The one exit policy of a run: the session's manifest and live status,
    the run journal and the CLI's exit code all come from here.

    - ``None`` (the command returned 0): ``completed``, exit 0.
    - :class:`RunInterrupted`: ``interrupted``, its reason, 124 or 130.
    - ``KeyboardInterrupt``: ``interrupted``, ``keyboard_interrupt``, 130.
    - :class:`CommandFailed`: ``failed``, ``exit_<code>``, the code.
    - An error whose class names a ``run_reason`` (``BudgetExceeded``,
      ``DiskFull``, ``StoreCorrupt``): ``failed``, that reason, exit 2.
    - Anything else: ``failed``, the exception's type name, and exit code
      ``None`` — the caller re-raises it.
    """
    if exc is None:
        return "completed", None, 0
    if isinstance(exc, RunInterrupted):
        return "interrupted", exc.reason, exc.exit_code
    if isinstance(exc, KeyboardInterrupt):
        return "interrupted", "keyboard_interrupt", EXIT_INTERRUPTED
    if isinstance(exc, CommandFailed):
        return "failed", f"exit_{exc.exit_code}", exc.exit_code
    reason = getattr(exc, "run_reason", None)
    if reason is not None:
        return "failed", reason, EXIT_FAILED
    return "failed", type(exc).__name__, None


class CancellationToken:
    """A one-way latch requesting cooperative shutdown.

    Thread- and signal-safe: :meth:`cancel` may run inside a signal
    handler, so it does nothing but flip the flag. The first ``cancel``
    call wins; later calls are no-ops.
    """

    __slots__ = ("_cancelled", "_reason", "_detail")

    def __init__(self) -> None:
        self._cancelled = False
        self._reason: str | None = None
        self._detail: str | None = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def reason(self) -> str | None:
        return self._reason

    @property
    def detail(self) -> str | None:
        return self._detail

    def cancel(self, reason: str = "cancelled", detail: str | None = None) -> bool:
        """Request shutdown; returns True only for the winning call."""
        if self._cancelled:
            return False
        self._cancelled = True
        self._reason = reason
        self._detail = detail
        return True


class Deadline:
    """A wall-clock budget measured on the monotonic clock.

    The expiry instant is fixed at construction. Pool workers drop the
    copy they inherit at fork: the pool's cancel word reaches them
    instead. :meth:`force_expire` lets chaos tests trip the budget on
    demand.
    """

    __slots__ = ("seconds", "_expires_at", "_forced")

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("deadline seconds must be non-negative")
        self.seconds = float(seconds)
        self._expires_at = time.monotonic() + self.seconds
        self._forced = False

    def remaining(self) -> float:
        if self._forced:
            return 0.0
        return max(self._expires_at - time.monotonic(), 0.0)

    def expired(self) -> bool:
        return self._forced or time.monotonic() >= self._expires_at

    def force_expire(self) -> None:
        self._forced = True


class CancelScope:
    """The pair a hot loop polls: an optional token + optional deadline."""

    __slots__ = ("token", "deadline")

    def __init__(
        self, token: CancellationToken | None, deadline: Deadline | None
    ) -> None:
        self.token = token
        self.deadline = deadline

    def cancelled(self) -> bool:
        token = self.token
        if token is not None and token.cancelled:
            return True
        deadline = self.deadline
        return deadline is not None and deadline.expired()

    def reason(self) -> str | None:
        token = self.token
        if token is not None and token.cancelled:
            return token.reason
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            return "deadline"
        return None

    def check(self) -> None:
        """Raise :class:`RunInterrupted` if shutdown was requested.

        Deadline expiry discovered here also latches the token (when
        one is present), so its :attr:`~CancellationToken.reason` reads
        ``"deadline"`` from then on.
        """
        token = self.token
        if token is not None and token.cancelled:
            _raise_interrupted(token.reason or "cancelled", token.detail)
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            if token is not None:
                token.cancel("deadline")
            _raise_interrupted("deadline")


NULL_SCOPE = CancelScope(None, None)

_active_scope: CancelScope = NULL_SCOPE


def current_cancel_scope() -> CancelScope:
    """The ambient scope (:data:`NULL_SCOPE` when nothing is active)."""
    return _active_scope


@contextlib.contextmanager
def cancel_scope(
    token: CancellationToken | None = None,
    deadline: Deadline | None = None,
) -> Iterator[CancelScope]:
    """Activate a scope for the dynamic extent of a run.

    Missing parts are inherited from the enclosing scope, so a nested
    engine adding only a deadline still honors the CLI's signal token.
    With neither part supplied this is a read-only view of the current
    scope (engines call it unconditionally on a context's fields).
    """
    global _active_scope
    outer = _active_scope
    if token is None and deadline is None:
        yield outer
        return
    _active_scope = CancelScope(token or outer.token, deadline or outer.deadline)
    try:
        yield _active_scope
    finally:
        _active_scope = outer


def expire_active_deadline() -> bool:
    """Force-expire the ambient deadline (chaos hook); False if none."""
    deadline = _active_scope.deadline
    if deadline is None:
        return False
    deadline.force_expire()
    return True


def _raise_interrupted(reason: str, detail: str | None = None) -> None:
    """Emit the lifecycle event/metric, then raise :class:`RunInterrupted`.

    Emission happens at the raise site — the single choke point every
    cooperative check funnels through — so the run manifest records the
    interruption no matter which engine noticed it first.
    """
    from repro.obs.recorder import current_recorder  # lazy: obs imports us

    rec = current_recorder()
    if rec.enabled:
        rec.inc("lifecycle.interrupted")
        rec.event(
            "lifecycle.interrupted",
            level="warning",
            reason=reason,
            detail=detail,
            pid=os.getpid(),
        )
    raise RunInterrupted(reason, detail=detail)


@contextlib.contextmanager
def signal_guard(
    token: CancellationToken,
    *,
    deadline: Deadline | None = None,
    signals: tuple[int, ...] = (signal.SIGTERM, signal.SIGINT),
    hard_exit: bool = True,
) -> Iterator[CancellationToken]:
    """Route SIGTERM/SIGINT into ``token`` for the duration of a run.

    First signal → ``token.cancel("signal")``; second → immediate
    ``os._exit(128+signum)`` (cooperative shutdown is presumed stuck).
    When ``deadline`` is given, a daemon timer cancels the token with
    reason ``"deadline"`` at expiry, waking worker loops that poll the
    token (the scope's own deadline check covers single-process paths).

    Installs nothing when called off the main thread (the interpreter
    forbids it); previous handlers are restored on exit either way.
    """
    if threading.current_thread() is not threading.main_thread():
        yield token
        return

    seen = [0]

    def _handler(signum: int, frame: Any) -> None:
        seen[0] += 1
        if seen[0] > 1 and hard_exit:
            os._exit(128 + signum)
        token.cancel("signal", detail=signal.Signals(signum).name)

    previous = {sig: signal.signal(sig, _handler) for sig in signals}
    timer: threading.Timer | None = None
    if deadline is not None:
        timer = threading.Timer(
            deadline.remaining(), lambda: token.cancel("deadline")
        )
        timer.daemon = True
        timer.start()
    try:
        yield token
    finally:
        if timer is not None:
            timer.cancel()
        for sig, prev in previous.items():
            signal.signal(sig, prev)
