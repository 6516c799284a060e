"""Resource-pressure guardrails: budgets, preflight, watchdog, ladder.

PRs 1/4/6 hardened the pipeline against dying *workers* and *signals*;
this module defends against a dying *host* — the machine running out of
RAM, /dev/shm, or disk mid-job. Three layers:

**Preflight** (:func:`preflight`). Before ``Pipeline.execute`` runs a
single stage, :func:`estimate_footprint` predicts the run's peak RSS
(embedding matrices, walk corpus, example positions, Hogwild slabs), /dev/shm
need, and checkpoint-dir disk need from the stage configs plus the
input graph size. Against a :class:`ResourceBudget` the run then either
fails fast with the typed :class:`BudgetExceeded` (``auto_degrade=False``)
or degrades itself — fewer effective workers means no shared-memory
slabs — before any expensive allocation happens.

**Watchdog** (:class:`PressureWatchdog`). A daemon thread samples VmRSS,
/dev/shm free space, and checkpoint-dir free space every ``interval``
seconds, publishing ``guard.*`` gauges and events through ``repro.obs``
and appending ``pressure`` records to the run manifest. On a threshold
breach it drives the **degradation ladder**:

    level 1  shrink walk frontier waves to one chunk at a time
    level 2  tear the worker pool down after every map (no idle forks)
    level 3  halve effective Hogwild map concurrency
    level 4  cancel the run: ``RunInterrupted(reason="resource_pressure")``

Level 4 rides the PR 6 cooperative-cancel machinery: the engines save
their epoch/wave-boundary checkpoints on the way down, so the run is
resumable bitwise-identically — exactly like a SIGTERM. Crucially, no
rung changes *model identity*: wave size and map concurrency are
scheduling knobs outside every resume fingerprint, and Hogwild task
structure (shards, per-worker seeds) always follows ``config.workers``.

**Ladder state** (:class:`GuardState`). A process-wide singleton the hot
paths poll cheaply: the walk engine clamps its wave via
:func:`clamp_wave`, the worker pool consults :func:`pool_allowed` at the
end of every map, the Hogwild trainer maps with
:func:`effective_workers`. All no-ops at level 0, which is the only
state tests and normal runs ever see unless a budget is armed.
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
    "GuardState",
    "PressureWatchdog",
    "ResourceBudget",
    "RunFootprint",
    "clamp_wave",
    "effective_workers",
    "estimate_footprint",
    "guard_state",
    "parse_size",
    "pool_allowed",
    "preflight",
    "reset_guard",
]

_log = get_logger("resilience.guard")

SHM_DIR = "/dev/shm"

#: Fraction of the memory budget at which the watchdog starts degrading.
DEGRADE_FRACTION = 0.85
#: Minimum free space (bytes) the watchdog tolerates on /dev/shm or the
#: checkpoint filesystem before treating it as pressure.
MIN_FREE_BYTES = 32 * 1024 * 1024
#: Ladder levels (level 0 = healthy).
LEVEL_WAVE = 1
LEVEL_POOL = 2
LEVEL_WORKERS = 3
LEVEL_CANCEL = 4

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
    workers to fit instead of raising; the runtime ladder always
    degrades (that is its purpose). ``interval`` is the watchdog sample
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

    Sniffs stage configs structurally (a walk config has
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
    from repro.walks.corpus import WALK_DTYPE

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
            # Examples are int64 positions into a window-padded copy of
            # the walk matrix: the positions and one epoch's shuffled
            # copy, the padded copy (walk tokens), and one block of
            # batches. At its peak a block's plan holds about four int64
            # copies of its gathered windows and a dozen of its
            # negative-sampling targets (center + negatives); a batch
            # step adds its gathered output rows, context means and
            # gradients.
            rows = batch * BLOCK_BATCHES
            block = rows * 8 * (4 * (1 + 2 * window) + 12 * (1 + negatives))
            step = batch * (3 + negatives) * dim * 8
            examples = (
                2 * tokens * 8
                + num_walks * (walk_length + 2 * window) * token_bytes
                + block
                + step
            )
            breakdown["train_weights"] = weights
            breakdown["train_examples"] = examples
            if max(cfg_workers, workers) > 1:
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


def _degraded_stages_fit(footprint: RunFootprint, budget: int) -> bool:
    """Would dropping the shm slabs (workers→1) fit the memory budget?"""
    return footprint.rss_bytes - footprint.shm_bytes <= budget


def preflight(
    ctx: Any, stages: list[Any], value: Any
) -> Any:
    """Budget check before the first stage runs; may return a degraded ctx.

    No-op (returns ``ctx`` unchanged) when the context carries no armed
    budget. With ``auto_degrade`` the only lever preflight pulls is
    ``workers → 1`` — dropping the Hogwild shm slabs — because that is
    the one degradation that provably reduces the footprint without
    touching model identity for a fresh run. If even the degraded
    footprint does not fit, or ``auto_degrade`` is off, raises
    :class:`BudgetExceeded`.
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
        if budget.auto_degrade and ctx.workers != 1 and _degraded_stages_fit(
            footprint, budget.memory_bytes
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


# ---------------------------------------------------------------------------
# Degradation-ladder state (process-wide, polled by the hot paths)


class GuardState:
    """Current degradation level plus the knobs each rung controls."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.level = 0
        self._on_cancel: Callable[[], None] | None = None

    def reset(self, *, on_cancel: Callable[[], None] | None = None) -> None:
        with self._lock:
            self.level = 0
            self._on_cancel = on_cancel

    def escalate(self, reason: str, *, to_level: int | None = None) -> int:
        """Raise the degradation level by one rung (or jump to ``to_level``).

        Returns the new level. Emits ``guard.degraded`` naming the rung
        so manifests show exactly which mitigations fired, in order.
        """
        with self._lock:
            target = self.level + 1 if to_level is None else max(
                to_level, self.level
            )
            target = min(target, LEVEL_CANCEL)
            if target == self.level:
                return self.level
            self.level = target
            on_cancel = self._on_cancel if target >= LEVEL_CANCEL else None
        rec = current_recorder()
        rec.inc("guard.degradations")
        rec.set("guard.level", float(target))
        rec.event(
            "guard.degraded",
            level="warning",
            rung=target,
            action=_RUNG_NAMES.get(target, "?"),
            reason=reason,
        )
        if target >= LEVEL_POOL:
            # Frees idle forked workers and their inherited pages now,
            # not at the next map.
            from repro.parallel.persistent import shutdown_pools

            shutdown_pools()
        if on_cancel is not None:
            on_cancel()
        return target


_RUNG_NAMES = {
    LEVEL_WAVE: "shrink_walk_waves",
    LEVEL_POOL: "disable_persistent_pool",
    LEVEL_WORKERS: "halve_workers",
    LEVEL_CANCEL: "emergency_checkpoint",
}

_STATE = GuardState()


def guard_state() -> GuardState:
    """The process-wide ladder state."""
    return _STATE


def reset_guard() -> None:
    """Return the ladder to level 0 (tests; start of every guarded run)."""
    _STATE.reset()


def clamp_wave(wave: int) -> int:
    """Walk-engine hook: chunks per frontier wave under pressure.

    Level ≥ 1 serializes chunk scheduling to one chunk per wave, halving
    the live walk buffers. Wave size is pure scheduling — a chunk's
    bytes depend only on its rows — so this never perturbs resumability.
    """
    if _STATE.level >= LEVEL_WAVE:
        return 1
    return wave


def pool_allowed() -> bool:
    """Worker-pool hook: False once the ladder reached level 2.

    The pool then tears its workers down at the end of every map.
    """
    return _STATE.level < LEVEL_POOL


def effective_workers(workers: int) -> int:
    """Hogwild hook: map concurrency under pressure (identity preserved).

    Level ≥ 3 halves the *pool size* only; task structure (shards,
    per-(epoch, worker) seeds) still follows ``config.workers``, so the
    trained model is the one the config names — it just arrives slower.
    """
    if _STATE.level >= LEVEL_WORKERS and workers > 1:
        return max(1, workers // 2)
    return workers


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
    """Daemon thread sampling RSS / shm / disk and driving the ladder.

    One watchdog per guarded ``Pipeline.execute``; it owns the process
    ladder state for the duration (``reset`` on start, and the cancel
    rung is wired to the run's cancellation token). Samples publish
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
        self._last_escalation = 0.0
        self.samples = 0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "PressureWatchdog":
        _STATE.reset(on_cancel=self._cancel)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-guard", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(self.budget.interval * 4, 2.0))
            self._thread = None
        # The run is over; leave the ladder as-is for inspection but
        # detach the cancel hook so a stale escalation cannot cancel a
        # *later* run's token.
        _STATE._on_cancel = None

    def __enter__(self) -> "PressureWatchdog":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- sampling -------------------------------------------------------
    def sample(self) -> dict[str, Any]:
        """One pressure sample (also the unit tests' entry point)."""
        record: dict[str, Any] = {
            "t": round(time.monotonic(), 3),
            "level": _STATE.level,
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
        """Sample, record, and escalate if breached (honoring cooldown)."""
        record = self.sample()
        reason = self.evaluate(record)
        rec = current_recorder()
        if reason is not None:
            rec.inc("guard.breaches")
            # The record's "level" is the *ladder* level; keep it out of
            # the event call's severity keyword.
            payload = {k: v for k, v in record.items() if k != "level"}
            rec.event(
                "guard.pressure",
                level="warning",
                reason=reason,
                ladder=record["level"],
                **payload,
            )
            record["breach"] = reason
            now = time.monotonic()
            if now - self._last_escalation >= self.cooldown:
                self._last_escalation = now
                # A hard overrun (rss past 100% of budget) goes straight
                # to the cancel rung; soft pressure climbs one rung.
                rss = record.get("rss_bytes")
                hard = (
                    self.budget.memory_bytes is not None
                    and rss is not None
                    and rss >= self.budget.memory_bytes
                )
                record["level"] = _STATE.escalate(
                    reason, to_level=LEVEL_CANCEL if hard else None
                )
        rec.add_pressure_record(record)
        return record

    def _run(self) -> None:
        while not self._stop.wait(self.budget.interval):
            try:
                self.poll_once()
            except Exception as exc:  # pragma: no cover - watchdog must not die
                _log.warning("guard.sample_failed", error=repr(exc))
