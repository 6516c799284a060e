"""ExecutionContext: every runtime concern of a pipeline run, in one value.

A context says *how* a run executes, never *what* it computes: where
checkpoints land and whether they are resumed, how many processes run,
what liveness policy supervises them, what telemetry is recorded, which
chaos hook wraps worker tasks, and when the run must stop. Model
identity (dimensions, seeds, walk modes) stays in the stage configs
(``RandomWalkConfig``/``TrainConfig``/``V2VConfig``), so two runs with
different contexts but equal configs compute identical results.

The context is the only place a runtime setting can be given. It is
built once at the entry point (the CLI's ``runtime_from_args``, or
directly by a library user) and passed whole through every stage; no
config object carries a second copy. The one shorthand is ``workers=``
on ``generate_walks`` and ``V2V.fit``, which stands for
``ExecutionContext(workers=...)`` and cannot be combined with
``context=``.

Layering note: this module sits *above* ``repro.obs``, ``repro.parallel``
and ``repro.resilience`` but *below* the stage implementations. The
low-level engines (``repro.walks.engine``, ``repro.core.trainer``)
accept a context duck-typed and only import this module lazily inside
their entry points — never at module level — which is what
``scripts/check_import_cycles.py`` enforces.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.obs.recorder import ObsConfig, current_recorder, session
from repro.parallel.pool import resolve_workers
from repro.parallel.seeding import spawn_seeds, worker_seed_sequence
from repro.pipeline.checkpointing import FingerprintedCheckpoints
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.guard import ResourceBudget
from repro.resilience.lifecycle import (
    CancellationToken,
    CancelScope,
    Deadline,
    cancel_scope,
    current_cancel_scope,
)
from repro.resilience.supervisor import SupervisorConfig

__all__ = ["ExecutionContext"]


@dataclass(frozen=True)
class ExecutionContext:
    """Runtime policy for one pipeline run.

    Parameters
    ----------
    observability:
        Telemetry settings. When set and no recorder is already
        installed, :meth:`session` opens a full observability session
        (sinks, recorder, run manifest) for the duration of the run.
    checkpoint_dir:
        Root directory for durable artifacts. ``None`` disables
        checkpointing entirely. Stages namespace their artifacts under
        this root (see :meth:`scoped`).
    resume:
        Reuse compatible checkpoints found under ``checkpoint_dir``
        instead of recomputing. Fingerprint mismatches raise
        :class:`repro.pipeline.checkpointing.FingerprintMismatch`.
    workers:
        Process count for parallelizable stages (the walk engine, chunk
        maps). ``None`` or any value < 1 means auto-detect via
        :func:`repro.parallel.pool.resolve_workers`. Note the *trainer*
        worker count stays in ``TrainConfig.workers`` — it changes the
        RNG stream layout and is therefore model identity, not runtime
        policy.
    shards:
        Not read by any stage: the walk engine splits walk rows, not
        shards (see :mod:`repro.walks.engine`). Kept only so existing
        callers that pass it keep working.
    supervisor:
        Liveness policy for parallel workers (heartbeats, watchdog,
        respawn ladder); ``None`` means ``SupervisorConfig()``'s
        defaults.
    fault_injector:
        Chaos hook: a callable mapping a stage's worker task function to
        a replacement (typically wrapping it in a
        :class:`repro.resilience.chaos.FaultInjector`). Applied by
        :meth:`wrap_task` wherever a stage fans work out. ``None`` (the
        default) is a transparent pass-through.
    seed:
        Root of the context's seed tree for *auxiliary* stage
        randomness (downstream tasks without their own seed). Stage
        configs keep their own seeds for anything that defines model
        identity.
    cancellation:
        Cooperative shutdown latch (see
        :mod:`repro.resilience.lifecycle`). The CLI wires its signal
        handlers to this token; engines poll it at checkpointable
        boundaries. Excluded from equality — requesting cancellation
        never changes what a run *would* compute.
    deadline:
        Wall-clock budget for the run. Expiry behaves like
        cancellation with reason ``"deadline"`` (exit code 124).
    budget:
        Resource ceilings (:class:`repro.resilience.guard.ResourceBudget`,
        from ``--memory-budget`` / ``--disk-budget``). When armed,
        ``Pipeline.execute`` runs a preflight footprint check and keeps
        a pressure watchdog sampling for the duration. Excluded from
        equality — like cancellation, a budget changes *whether/how
        fast* a run computes, never what it computes.
    """

    observability: ObsConfig | None = None
    checkpoint_dir: Path | None = None
    resume: bool = False
    workers: int | None = 1
    shards: int | None = None
    supervisor: SupervisorConfig | None = None
    fault_injector: Callable[[Callable], Callable] | None = field(
        default=None, compare=False
    )
    seed: int | None = None
    cancellation: CancellationToken | None = field(default=None, compare=False)
    deadline: Deadline | None = field(default=None, compare=False)
    budget: ResourceBudget | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.checkpoint_dir is not None and not isinstance(
            self.checkpoint_dir, Path
        ):
            object.__setattr__(self, "checkpoint_dir", Path(self.checkpoint_dir))

    # -- telemetry ------------------------------------------------------
    @property
    def recorder(self):
        """The process-wide recorder (no-op unless a session is open)."""
        return current_recorder()

    @contextlib.contextmanager
    def session(self, run_config: dict | None = None) -> Iterator[Any]:
        """Open an observability session if one is wanted and absent.

        No-ops (yielding the already-current recorder) when the context
        has no :class:`ObsConfig` or an enclosing session — e.g. the
        CLI's — already installed a recorder, so nested pipelines never
        double-install sinks.
        """
        if self.observability is None or current_recorder().enabled:
            yield current_recorder()
            return
        with session(self.observability, run_config=run_config) as rec:
            yield rec

    # -- lifecycle ------------------------------------------------------
    def lifecycle(self) -> contextlib.AbstractContextManager[CancelScope]:
        """Activate this context's cancellation/deadline as the ambient
        scope (merging with any enclosing one). Engines enter this at
        their public boundary; hot loops then poll via
        :func:`repro.resilience.lifecycle.current_cancel_scope`."""
        return cancel_scope(self.cancellation, self.deadline)

    @property
    def cancel_requested(self) -> bool:
        """True once this run should wind down (token or deadline)."""
        return self._scope().cancelled()

    def check_cancelled(self) -> None:
        """Raise :class:`repro.resilience.lifecycle.RunInterrupted` if
        shutdown was requested — for code holding a context directly."""
        self._scope().check()

    def _scope(self) -> CancelScope:
        ambient = current_cancel_scope()
        if self.cancellation is None and self.deadline is None:
            return ambient
        return CancelScope(
            self.cancellation or ambient.token,
            self.deadline or ambient.deadline,
        )

    # -- workers / supervision / chaos ---------------------------------
    def resolve_workers(self) -> int:
        """The concrete worker count for parallel stages (always >= 1)."""
        return resolve_workers(self.workers)

    def wrap_task(self, fn: Callable) -> Callable:
        """Apply the chaos hook to a stage's worker task, if one is set."""
        if self.fault_injector is None:
            return fn
        return self.fault_injector(fn)

    # -- checkpointing --------------------------------------------------
    def checkpoints(self, scope: str | None = None) -> CheckpointManager | None:
        """A checkpoint manager under ``checkpoint_dir`` (or ``None``).

        ``scope`` selects a subdirectory — stages use their own names so
        artifacts from different stages never collide.
        """
        if self.checkpoint_dir is None:
            return None
        directory = (
            self.checkpoint_dir if scope is None else self.checkpoint_dir / scope
        )
        return CheckpointManager(directory)

    def fingerprinted(
        self,
        fingerprint: dict[str, Any],
        *,
        scope: str | None = None,
        what: str = "checkpoint",
        described: str = "configuration",
    ) -> FingerprintedCheckpoints | None:
        """Fingerprint-verified checkpoint slots, or ``None`` when disabled."""
        manager = self.checkpoints(scope)
        if manager is None:
            return None
        return FingerprintedCheckpoints(
            manager, fingerprint, what=what, described=described
        )

    def scoped(self, name: str) -> "ExecutionContext":
        """A copy whose ``checkpoint_dir`` is the ``name`` subdirectory.

        Stages call ``ctx.scoped(stage.name)`` so each stage owns a
        directory namespace; with checkpointing disabled this is a
        no-op copy.
        """
        if self.checkpoint_dir is None:
            return self
        return replace(self, checkpoint_dir=self.checkpoint_dir / name)

    # -- seed tree ------------------------------------------------------
    def spawn_seeds(self, count: int) -> list[np.random.SeedSequence]:
        """``count`` independent child streams of the context seed."""
        return spawn_seeds(self.seed, count)

    def seed_sequence(self, *key: int | str) -> np.random.SeedSequence:
        """An addressable child stream named by ``key``.

        String components are hashed stably (so
        ``ctx.seed_sequence("detect")`` names the same stream in every
        process); integer components pass through. Unlike
        :meth:`spawn_seeds` the result does not depend on call order.
        """
        entropy = np.random.SeedSequence(self.seed).entropy
        numeric = tuple(
            k if isinstance(k, int) else _stable_key(k) for k in key
        )
        return worker_seed_sequence(entropy, *numeric)


def _stable_key(name: str) -> int:
    """A deterministic 32-bit key for a string (no PYTHONHASHSEED wobble)."""
    import zlib

    return zlib.crc32(name.encode())
