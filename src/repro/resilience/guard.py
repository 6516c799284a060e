"""Resource-pressure guardrails: budgets, preflight, watchdog.

PRs 1/4/6 hardened the pipeline against dying *workers* and *signals*;
this module defends against a dying *host* — the machine running out of
RAM, /dev/shm, or disk mid-job. Two layers:

**Preflight** (:func:`preflight`). Before ``Pipeline.execute`` runs a
single stage, :func:`estimate_footprint` predicts the run's peak RSS
(embedding matrices, walk corpus, example positions, shared-memory
buffers), /dev/shm need, and checkpoint-dir disk need from the stage
configs plus the input graph size. Against a :class:`ResourceBudget` the
run then either fails fast with the typed :class:`BudgetExceeded`
(``auto_degrade=False``, or a run that does not fit even with one
worker) or drops to one worker — no pooled walk matrix in /dev/shm —
before any expensive allocation happens.

**Watchdog** (:class:`PressureWatchdog`). A daemon thread samples VmRSS,
/dev/shm free space, and checkpoint-dir free space every ``interval``
seconds, publishing ``guard.*`` gauges and events through ``repro.obs``
and appending ``pressure`` records to the run manifest. The worker
pool's own degrade ladder is its one lever:

    soft breach   halve the shared pool's slot cap (next breach: again)
    cap 1         maps run in-process, no worker forked or kept
    soft breach   cancel the run: ``RunInterrupted(reason="resource_pressure")``
    hard breach   cancel at once

The cancel rides the cooperative-cancel machinery: the engines save
their epoch/wave-boundary checkpoints on the way down, so the run is
resumable bitwise-identically — exactly like a SIGTERM. No step changes
*model identity*: map concurrency is a scheduling knob outside every
resume fingerprint, and Hogwild task structure (shards, per-worker
seeds) always follows ``config.workers``.
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro.obs.logging import get_logger
from repro.obs.recorder import current_recorder
from repro.obs.resources import _proc_rss_kb

__all__ = [
    "BudgetExceeded",
    "PressureWatchdog",
    "ResourceBudget",
    "RunFootprint",
    "effective_workers",
    "estimate_footprint",
    "parse_size",
    "preflight",
]

_log = get_logger("resilience.guard")

SHM_DIR = "/dev/shm"

#: Fraction of the memory budget at which the watchdog starts degrading.
DEGRADE_FRACTION = 0.85
#: Minimum free space (bytes) the watchdog tolerates on /dev/shm or the
#: checkpoint filesystem before treating it as pressure.
MIN_FREE_BYTES = 32 * 1024 * 1024

_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([KMGT]?)I?B?\s*$", re.IGNORECASE)
_SIZE_UNITS = {"": 1, "K": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}


def parse_size(text: str | int | float) -> int:
    """``"2G"`` / ``"512M"`` / ``"1048576"`` → bytes (binary units)."""
    if isinstance(text, (int, float)):
        if text <= 0:
            raise ValueError("size must be positive")
        return int(text)
    match = _SIZE_RE.match(str(text))
    if not match:
        raise ValueError(f"unparseable size {text!r} (expected e.g. '2G', '512M')")
    value = float(match.group(1)) * _SIZE_UNITS[match.group(2).upper()]
    if value <= 0:
        raise ValueError("size must be positive")
    return int(value)


def format_size(num_bytes: float) -> str:
    """Human-readable binary size for messages (``1.5G``, ``512.0M``)."""
    value = float(num_bytes)
    for unit in ("", "K", "M", "G"):
        if abs(value) < 1024:
            return f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}T"


class BudgetExceeded(RuntimeError):
    """A run's estimated footprint does not fit its resource budget.

    Raised by :func:`preflight` *before* any allocation happens, so the
    operator fixes the budget or the config instead of meeting the OOM
    killer twenty minutes in.
    """

    run_reason = "budget_exceeded"  # see lifecycle.run_outcome

    def __init__(
        self, resource: str, needed: int, budget: int, detail: str = ""
    ) -> None:
        msg = (
            f"{resource} budget exceeded: run needs ~{format_size(needed)}, "
            f"budget is {format_size(budget)}"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.resource = resource
        self.needed = int(needed)
        self.budget = int(budget)


@dataclass(frozen=True)
class ResourceBudget:
    """Operator-declared ceilings for one run (``--memory-budget`` etc.).

    ``memory_bytes`` bounds peak RSS (and, transitively, the /dev/shm
    slabs, which live in RAM); ``disk_bytes`` bounds what the checkpoint
    directory may grow to. ``auto_degrade=True`` lets preflight shrink
    workers to fit instead of raising; the watchdog always degrades
    (that is its purpose). ``interval`` is the watchdog sample
    period.
    """

    memory_bytes: int | None = None
    disk_bytes: int | None = None
    auto_degrade: bool = True
    interval: float = 0.5

    def __post_init__(self) -> None:
        if self.memory_bytes is not None and self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.disk_bytes is not None and self.disk_bytes <= 0:
            raise ValueError("disk_bytes must be positive")
        if self.interval <= 0:
            raise ValueError("interval must be positive")

    @property
    def armed(self) -> bool:
        return self.memory_bytes is not None or self.disk_bytes is not None


@dataclass(frozen=True)
class RunFootprint:
    """Predicted peak resource needs of one pipeline run, in bytes."""

    rss_bytes: int = 0
    shm_bytes: int = 0
    disk_bytes: int = 0
    breakdown: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rss_bytes": self.rss_bytes,
            "shm_bytes": self.shm_bytes,
            "disk_bytes": self.disk_bytes,
            "breakdown": dict(self.breakdown),
        }


def _graph_size(value: Any) -> tuple[int, int]:
    """(vertices, edges) from a pipeline input, best-effort."""
    n = getattr(value, "n", None) or getattr(value, "num_vertices", None)
    m = getattr(value, "num_edges", None)
    return int(n or 0), int(m or 0)


def estimate_footprint(
    stages: list[Any], value: Any, *, workers: int = 1
) -> RunFootprint:
    """Predict peak RSS / shm / checkpoint-disk needs for a stage chain.

    ``workers`` is the context's worker count, which pools the walk
    stage; the trainer's own ``workers`` decides Hogwild. Each charges
    the /dev/shm it allocates. Sniffs stage configs structurally (a walk config has
    ``walks_per_vertex``; a train config has ``dim`` and ``window``) so
    the estimator needs no import of the stage classes. Estimates are
    deliberately slightly conservative — float64 reference-kernel sizes,
    two resident copies of the walk corpus during the walks→train
    handoff — because the failure mode of underestimating is the OOM
    killer.
    """
    n, m = _graph_size(value)
    graph_bytes = (n + 2 * m) * 8
    breakdown: dict[str, int] = {}
    disk_extra = 0
    if getattr(value, "mmap_backed", False):
        # Out-of-core store: CSR pages live on disk and fault in on
        # demand. A walk may touch every shard, but these are clean,
        # read-only file pages the kernel reclaims under pressure, so
        # they need not count as committed memory; one shard's worth
        # stands in for the pages hot at any moment. The structure
        # itself counts against disk.
        num_shards = max(int(getattr(value, "num_shards", 1) or 1), 1)
        breakdown["graph_mmap_working_set"] = graph_bytes // num_shards
        disk_extra = graph_bytes
    else:
        breakdown["graph"] = graph_bytes
    from repro.walks.corpus import WALK_DTYPE, position_dtype

    token_bytes = WALK_DTYPE.itemsize
    tokens = 0
    num_walks = 0
    walk_length = 0
    shm = 0
    disk = 0
    for stage in stages:
        cfg = getattr(stage, "config", None)
        if cfg is None:
            continue
        if hasattr(cfg, "walks_per_vertex") and hasattr(cfg, "walk_length"):
            num_walks = n * int(cfg.walks_per_vertex)
            walk_length = int(cfg.walk_length)
            tokens = num_walks * walk_length
            # The walk matrix, resident twice at the stage handoff
            # (engine result + chunk assembly buffers).
            breakdown["walk_corpus"] = tokens * token_bytes * 2
            # Checkpointed walk chunks mirror the corpus on disk, plus
            # one in-flight tmp file.
            disk += tokens * token_bytes + max(tokens, 1) * token_bytes // 4
            if workers > 1:
                # Pooled walks write one shared matrix in /dev/shm.
                shm += tokens * token_bytes
                breakdown["walk_shm"] = tokens * token_bytes
        if hasattr(cfg, "dim") and hasattr(cfg, "window"):
            dim = int(cfg.dim)
            window = int(cfg.window)
            cfg_workers = int(getattr(cfg, "workers", 1) or 1)
            batch = int(getattr(cfg, "batch_size", 512))
            negatives = int(getattr(cfg, "negatives", 5))
            from repro.core.trainer import BLOCK_BATCHES

            matrices = 2 * n * dim * 8  # input + output, float64
            # Plus the float64 copy of the vectors a run returns.
            weights = matrices + n * dim * 8
            # Examples are positions into a window-padded copy of the
            # walk matrix: one position array, shuffled in place (int32
            # below 2**31 padded cells), the padded copy (walk tokens),
            # and one block of batches. At its peak a block's plan holds
            # about four int64 copies of its gathered windows and a dozen
            # of its negative-sampling targets (center + negatives); a
            # batch step adds its gathered output rows, context means and
            # gradients.
            rows = batch * BLOCK_BATCHES
            block = rows * 8 * (4 * (1 + 2 * window) + 12 * (1 + negatives))
            step = batch * (3 + negatives) * dim * 8
            padded_cells = num_walks * (walk_length + 2 * window)
            examples = (
                tokens * position_dtype(padded_cells).itemsize
                + padded_cells * token_bytes
                + block
                + step
            )
            breakdown["train_weights"] = weights
            breakdown["train_examples"] = examples
            if cfg_workers > 1:
                # Hogwild maps weights, padded walks and positions into
                # /dev/shm slabs; charging all of ``examples`` again
                # over-counts only the per-process working set.
                shm += weights + examples
                breakdown["hogwild_shm"] = weights + examples
            # Epoch snapshots: weights + RNG state, tmp + final copies.
            disk += matrices * 2
    rss = sum(breakdown.values())
    return RunFootprint(
        rss_bytes=rss,
        shm_bytes=shm,
        disk_bytes=disk + disk_extra,
        breakdown=breakdown,
    )


def preflight(
    ctx: Any, stages: list[Any], value: Any
) -> Any:
    """Budget check before the first stage runs; may return a degraded ctx.

    No-op (returns ``ctx`` unchanged) when the context carries no armed
    budget. With ``auto_degrade`` the only lever preflight pulls is
    ``ctx.workers → 1`` — no pooled walk matrix — because that never
    touches model identity. The trainer's Hogwild slabs follow
    ``TrainConfig.workers``, which is identity, so they stay charged. If
    the one-worker footprint does not fit either, or ``auto_degrade`` is
    off, raises :class:`BudgetExceeded`.
    """
    budget: ResourceBudget | None = getattr(ctx, "budget", None)
    if budget is None or not budget.armed:
        return ctx
    footprint = estimate_footprint(stages, value, workers=ctx.resolve_workers())
    rec = current_recorder()
    rec.event(
        "guard.preflight",
        level="info",
        **footprint.as_dict(),
        memory_budget=budget.memory_bytes,
        disk_budget=budget.disk_bytes,
    )
    if budget.memory_bytes is not None and (
        footprint.rss_bytes > budget.memory_bytes
    ):
        if budget.auto_degrade and (
            estimate_footprint(stages, value, workers=1).rss_bytes
            <= budget.memory_bytes
        ):
            rec.inc("guard.degradations")
            rec.event(
                "guard.degraded",
                level="warning",
                action="preflight_workers_to_1",
                estimated_rss=footprint.rss_bytes,
                memory_budget=budget.memory_bytes,
                workers_before=ctx.workers,
            )
            return replace(ctx, workers=1)
        raise BudgetExceeded(
            "memory",
            footprint.rss_bytes,
            budget.memory_bytes,
            detail=f"breakdown={footprint.breakdown}",
        )
    if budget.disk_bytes is not None and footprint.disk_bytes > budget.disk_bytes:
        raise BudgetExceeded(
            "disk",
            footprint.disk_bytes,
            budget.disk_bytes,
            detail="checkpoint artifacts exceed --disk-budget",
        )
    return ctx


def effective_workers(workers: int) -> int:
    """Map concurrency a ``workers``-wide map gets under the pressure cap.

    ``min(workers, cap)`` of the shared worker pool; reads the cap
    without creating a pool. Task structure is unaffected: Hogwild still
    builds ``config.workers`` shards, only fewer run at once.
    """
    from repro.parallel.persistent import slot_cap

    return min(workers, slot_cap() or workers)


# ---------------------------------------------------------------------------
# Runtime watchdog


def _free_bytes(path: str | Path) -> int | None:
    try:
        stat = os.statvfs(path)
    except OSError:
        return None
    return stat.f_bavail * stat.f_frsize


def _rss_bytes() -> int | None:
    kb = _proc_rss_kb()
    return None if kb is None else int(kb * 1024)


class PressureWatchdog:
    """Daemon thread sampling RSS / shm / disk and degrading on breach.

    One watchdog per guarded ``Pipeline.execute``. A soft breach asks the
    shared worker pool to halve its slot cap
    (:meth:`repro.parallel.persistent.PersistentPool.degrade`); once maps
    already run in-process, or on a hard breach, it calls ``cancel``.
    The first breach steps at once; ``cooldown`` seconds must then pass
    before the next step, so a burst of breaches is one step.
    :meth:`stop` lifts the cap and detaches ``cancel``. Samples publish
    ``guard.rss_bytes`` / ``guard.shm_free_bytes`` /
    ``guard.disk_free_bytes`` gauges and append ``pressure`` records to
    the recorder so the manifest carries the pressure timeline.
    """

    def __init__(
        self,
        budget: ResourceBudget,
        *,
        checkpoint_dir: str | Path | None = None,
        cancel: Callable[[], None] | None = None,
        cooldown: float = 2.0,
    ) -> None:
        self.budget = budget
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._cancel = cancel
        self.cooldown = float(cooldown)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # ``time.monotonic()`` has no defined zero, so "no step yet" is
        # None, never a clock reading the first breach must wait out.
        self._last_step: float | None = None
        self._cancelled = False
        self.samples = 0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "PressureWatchdog":
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-guard", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        from repro.parallel.persistent import get_pool, slot_cap

        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(self.budget.interval * 4, 2.0))
            self._thread = None
        # The run is over: the next one starts with full slots, and a
        # stale poll cannot cancel a later run's token.
        self._cancel = None
        if slot_cap() is not None:
            get_pool().uncap()

    def __enter__(self) -> "PressureWatchdog":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- sampling -------------------------------------------------------
    def sample(self) -> dict[str, Any]:
        """One pressure sample (also the unit tests' entry point)."""
        from repro.parallel.persistent import slot_cap

        record: dict[str, Any] = {
            "t": round(time.monotonic(), 3),
            "slot_cap": slot_cap(),
        }
        rec = current_recorder()
        rss = _rss_bytes()
        if rss is not None:
            record["rss_bytes"] = rss
            rec.set("guard.rss_bytes", float(rss))
        shm_free = _free_bytes(SHM_DIR)
        if shm_free is not None:
            record["shm_free_bytes"] = shm_free
            rec.set("guard.shm_free_bytes", float(shm_free))
        if self.checkpoint_dir is not None:
            disk_free = _free_bytes(self.checkpoint_dir)
            if disk_free is not None:
                record["disk_free_bytes"] = disk_free
                rec.set("guard.disk_free_bytes", float(disk_free))
        self.samples += 1
        return record

    def evaluate(self, record: dict[str, Any]) -> str | None:
        """Breach detection on one sample; returns the reason or None."""
        mem = self.budget.memory_bytes
        rss = record.get("rss_bytes")
        if mem is not None and rss is not None:
            if rss >= mem:
                return f"rss {format_size(rss)} >= budget {format_size(mem)}"
            if rss >= mem * DEGRADE_FRACTION:
                return (
                    f"rss {format_size(rss)} >= "
                    f"{int(DEGRADE_FRACTION * 100)}% of budget "
                    f"{format_size(mem)}"
                )
        shm_free = record.get("shm_free_bytes")
        if shm_free is not None and shm_free < MIN_FREE_BYTES:
            return f"/dev/shm free {format_size(shm_free)} below minimum"
        disk_free = record.get("disk_free_bytes")
        if disk_free is not None and disk_free < MIN_FREE_BYTES:
            return f"checkpoint disk free {format_size(disk_free)} below minimum"
        return None

    def poll_once(self) -> dict[str, Any]:
        """Sample, record, and take one step if breached (honoring cooldown).

        The first breach steps at once; a later one steps only once
        ``cooldown`` seconds have passed since the last step. A soft
        breach halves the pool's slot cap; a hard one (RSS at or past the
        budget), or a soft one with maps already in-process, cancels the
        run.
        """
        record = self.sample()
        reason = self.evaluate(record)
        rec = current_recorder()
        if reason is not None:
            rec.inc("guard.breaches")
            rec.event("guard.pressure", level="warning", reason=reason, **record)
            record["breach"] = reason
            now = time.monotonic()
            if not self._cancelled and (
                self._last_step is None or now - self._last_step >= self.cooldown
            ):
                self._last_step = now
                self._step(record, reason)
        rec.add_pressure_record(record)
        return record

    def _step(self, record: dict[str, Any], reason: str) -> None:
        """Halve the pool's slots, or cancel when nothing is left to cut."""
        from repro.parallel.persistent import get_pool, slot_cap

        rss = record.get("rss_bytes")
        hard = (
            self.budget.memory_bytes is not None
            and rss is not None
            and rss >= self.budget.memory_bytes
        )
        pool = None if hard else get_pool()
        halved = pool is not None and pool.degrade()
        record["action"] = "halve_slots" if halved else "cancel"
        record["slot_cap"] = slot_cap()
        rec = current_recorder()
        rec.inc("guard.degradations")
        if record["slot_cap"] is not None:
            rec.set("guard.slot_cap", float(record["slot_cap"]))
        rec.event(
            "guard.degraded",
            level="warning",
            action=record["action"],
            slot_cap=record["slot_cap"],
            reason=reason,
        )
        if not halved:
            self._cancelled = True
            if self._cancel is not None:
                self._cancel()

    def _run(self) -> None:
        while not self._stop.wait(self.budget.interval):
            try:
                self.poll_once()
            except Exception as exc:  # pragma: no cover - watchdog must not die
                _log.warning("guard.sample_failed", error=repr(exc))
