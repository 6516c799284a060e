"""Fault-tolerant execution: supervision, atomic checkpoints, chaos.

The north-star deployment runs walk generation and training as long
multi-process jobs; this package supplies the primitives every layer
above uses to survive partial failure:

- :mod:`repro.resilience.checkpoint` — atomic ``write-tmp → fsync →
  rename`` snapshots of numpy state with embedded SHA-256/CRC32
  integrity records, a typed :class:`CheckpointCorrupt` error, and a
  :class:`CheckpointManager` that quarantines corrupt files on resume.
- :mod:`repro.resilience.supervisor` — the liveness policy
  (:class:`SupervisorConfig`) and the per-worker heartbeat
  (:func:`current_heartbeat`) behind the supervised worker pool in
  :mod:`repro.parallel.persistent`, whose watchdog kills and respawns
  dead *and hung* workers and degrades down to serial execution.
- :mod:`repro.resilience.chaos` — a deterministic fault-injection
  harness (:class:`FaultInjector`: fail / exit / hang / corrupt_file /
  signal / deadline) used by the test suite to prove each recovery path
  actually fires.
- :mod:`repro.resilience.lifecycle` — run lifecycle control:
  :class:`CancellationToken` + :class:`Deadline` carried on the
  :class:`repro.pipeline.ExecutionContext`, the ambient
  :class:`CancelScope` hot loops poll, :func:`signal_guard` for
  SIGTERM/SIGINT, :class:`RunInterrupted`, and :func:`run_outcome`,
  the one exit policy (130 interrupt, 124 deadline, 2 typed failure).
- :mod:`repro.resilience.guard` — resource-pressure guardrails:
  :class:`ResourceBudget` (``--memory-budget`` / ``--disk-budget``),
  preflight footprint estimation with typed :class:`BudgetExceeded`,
  and the :class:`PressureWatchdog` daemon, which halves the worker
  pool's slots on pressure (down to in-process maps) and then cancels
  the run.
- :mod:`repro.resilience.registry` — the crash-safe run journal
  (``runs.jsonl``) behind ``repro runs list`` / ``repro runs resume``,
  plus the startup sweeper that reclaims /dev/shm segments and torn
  tmp files from pid-gone runs.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "checkpoint": (
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
        ),
        "supervisor": ("SupervisorConfig", "current_heartbeat"),
        "chaos": (
            "FaultInjector",
            "InjectedFault",
            "injected_memory_bytes",
            "release_injected_memory",
        ),
        "guard": (
            "BudgetExceeded",
            "PressureWatchdog",
            "ResourceBudget",
            "RunFootprint",
            "effective_workers",
            "estimate_footprint",
            "parse_size",
            "preflight",
        ),
        "registry": ("RunRecord", "RunRegistry"),
        "lifecycle": (
            "CancellationToken",
            "CancelScope",
            "Deadline",
            "RunInterrupted",
            "cancel_scope",
            "current_cancel_scope",
            "expire_active_deadline",
            "signal_guard",
            "EXIT_INTERRUPTED",
            "EXIT_DEADLINE",
        ),
    },
)
