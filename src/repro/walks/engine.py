"""Vectorized constrained random walks (paper Section II-A).

All walk variants share one stepping loop that advances *every* active
walk by one hop per iteration:

- ``UNIFORM``          — uniform random neighbor (the basic walk).
- ``WEIGHTED``         — P(arc) proportional to edge weight (alias tables).
- ``VERTEX_WEIGHTED``  — P(arc) proportional to the *target vertex* weight.
- ``TEMPORAL``         — arcs must be strictly increasing in timestamp;
  optionally two consecutive arcs must be within ``time_window`` of each
  other. Implemented with a vectorized per-row binary search over
  time-sorted arcs.

Directed graphs simply follow out-arcs; a walk that reaches a vertex with
no (eligible) out-arc terminates, exactly as the paper specifies, and its
remaining positions are padded with ``-1``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.graph.core import Graph
from repro.obs.recorder import current_recorder
from repro.parallel.seeding import spawn_seeds
from repro.walks.alias import AliasTable, build_arc_alias
from repro.walks.corpus import WalkCorpus

__all__ = ["WalkMode", "RandomWalkConfig", "generate_walks"]

PAD = -1


class WalkMode(str, enum.Enum):
    """Which constrained-walk variant to run."""

    UNIFORM = "uniform"
    WEIGHTED = "weighted"
    VERTEX_WEIGHTED = "vertex_weighted"
    TEMPORAL = "temporal"
    NODE2VEC = "node2vec"


@dataclass(frozen=True)
class RandomWalkConfig:
    """Parameters of the walk corpus.

    ``walks_per_vertex`` is the paper's ``t`` and ``walk_length`` its
    ``ℓ`` (paper default 1000 each; our benches default smaller — see
    DESIGN.md substitutions). ``walk_length`` counts *vertices* in the
    sequence, so a walk takes ``walk_length - 1`` hops.
    """

    walks_per_vertex: int = 10
    walk_length: int = 80
    mode: WalkMode = WalkMode.UNIFORM
    time_window: float | None = None
    p: float = 1.0
    q: float = 1.0
    seed: int | None = None
    start_vertices: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.walks_per_vertex < 1:
            raise ValueError("walks_per_vertex must be >= 1")
        if self.walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        if self.time_window is not None and self.time_window < 0:
            raise ValueError("time_window must be non-negative")
        if self.time_window is not None and self.mode is not WalkMode.TEMPORAL:
            raise ValueError("time_window only applies to temporal walks")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("node2vec p and q must be positive")
        if (self.p != 1.0 or self.q != 1.0) and self.mode is not WalkMode.NODE2VEC:
            raise ValueError("p/q only apply to node2vec walks")


# Local "not passed" sentinel for the legacy keyword shims (the pipeline
# layer has its own; this module must not import it at module level).
_UNSET = object()


def generate_walks(
    g: Graph,
    config: RandomWalkConfig | None = None,
    *,
    context=None,
    workers: "int | None" = _UNSET,  # type: ignore[assignment]
    keep_shared: bool = False,
    checkpoint_dir: "str | Path | None" = _UNSET,  # type: ignore[assignment]
    resume: bool = _UNSET,  # type: ignore[assignment]
    checkpoint_chunks: int | None = None,
    supervisor=_UNSET,
) -> WalkCorpus:
    """Generate ``t`` walks from every vertex (or from ``start_vertices``).

    Returns a :class:`WalkCorpus` whose ``walks`` matrix has one row per
    walk, padded with ``-1`` after termination.

    Runtime concerns — worker count, checkpoint directory, resume,
    supervision, chaos hooks — travel in ``context``, a
    :class:`repro.pipeline.ExecutionContext`:

    * ``context.workers > 1`` splits the walk set across a process pool;
      each chunk gets an independent spawned seed stream, so results are
      reproducible for a fixed ``(seed, workers)`` pair (but differ
      across worker counts, since the streams differ). ``None``/< 1
      means auto via :func:`repro.parallel.pool.resolve_workers`.
      Parallel workers write their rows straight into one shared-memory
      block — chunk results are never pickled back through the pool —
      and ``keep_shared=True`` hands that block to the returned corpus
      zero-copy (call :meth:`WalkCorpus.release` when done, or let GC
      unlink it).
    * ``context.checkpoint_dir`` enables durable execution: the walk set
      is split into ``checkpoint_chunks`` chunks (default
      ``max(workers, 1)``) and each completed chunk is written
      atomically to the directory. With ``context.resume`` true, chunks
      already on disk (with a matching configuration fingerprint) are
      reused instead of recomputed, so a killed run restarts where it
      stopped and — because chunk seeds are spawned deterministically
      from ``config.seed`` — produces a corpus bitwise-identical to an
      uninterrupted run with the same ``(seed, chunk count)``. A
      fingerprint mismatch raises
      :class:`repro.pipeline.FingerprintMismatch` (a ``ValueError``)
      rather than silently mixing corpora.
    * ``context.supervisor`` sets the liveness policy parallel chunks
      run under (heartbeat-based hung-worker detection, kill/respawn
      with chunk reassignment, and a degrade ladder to serial; default
      ``SupervisorConfig()``). Chunk recomputation is idempotent (same
      seed → same rows), so a respawned chunk is bitwise-harmless.

    The individual ``workers=``/``checkpoint_dir=``/``resume=``/
    ``supervisor=`` keyword arguments remain accepted for compatibility
    (``checkpoint_dir``/``resume``/``supervisor`` with a
    ``DeprecationWarning``); they cannot be combined with ``context``.
    """
    from repro.pipeline.context import UNSET, context_from_legacy

    ctx = context_from_legacy(
        context,
        workers=UNSET if workers is _UNSET else workers,
        checkpoint_dir=UNSET if checkpoint_dir is _UNSET else checkpoint_dir,
        resume=UNSET if resume is _UNSET else resume,
        supervisor=UNSET if supervisor is _UNSET else supervisor,
    )
    return _generate_walks(
        g, config, ctx, keep_shared=keep_shared, chunks=checkpoint_chunks
    )


def _generate_walks(
    g: Graph,
    config: RandomWalkConfig | None,
    ctx,
    *,
    keep_shared: bool = False,
    chunks: int | None = None,
) -> WalkCorpus:
    """Context-based engine entry (``ctx`` is an ExecutionContext)."""
    config = config or RandomWalkConfig()
    if getattr(g, "mmap_backed", False) and hasattr(g, "shard"):
        # Out-of-core store: shard-parallel engine with counter-based
        # draws (bitwise-stable across shard/worker counts). Durable
        # chunk checkpoints don't apply there — shard rounds are
        # idempotent (see repro.walks.sharded).
        from repro.walks.sharded import generate_walks_sharded

        return generate_walks_sharded(g, config, context=ctx)
    workers = ctx.resolve_workers()
    rec = current_recorder()
    with ctx.lifecycle(), rec.span(
        "walks.generate",
        n=int(g.n),
        mode=str(WalkMode(config.mode).value),
        walks_per_vertex=config.walks_per_vertex,
        walk_length=config.walk_length,
        workers=workers,
    ) as span:
        with rec.time("walks.generate_seconds") as timer:
            if ctx.checkpoint_dir is not None:
                corpus = _generate_walks_checkpointed(
                    g, config, ctx, chunks=chunks or workers
                )
            elif workers > 1:
                corpus = _generate_walks_parallel(g, config, ctx, keep_shared)
            else:
                corpus = _generate_walks_serial(g, config)
        if rec.enabled:
            walks_per_sec = corpus.num_walks / max(timer.seconds, 1e-9)
            rec.inc("walks.total", corpus.num_walks)
            rec.inc("walks.tokens", corpus.num_tokens)
            rec.set("walks.walks_per_sec", walks_per_sec)
            span.annotate(
                walks=corpus.num_walks,
                tokens=corpus.num_tokens,
                walks_per_sec=round(walks_per_sec, 1),
            )
        return corpus


def _generate_walks_serial(g: Graph, config: RandomWalkConfig) -> WalkCorpus:
    """The single-process stepping loop shared by every dispatch path."""
    mode = WalkMode(config.mode)
    _validate_mode(g, mode)

    if config.start_vertices is not None:
        starts_once = np.asarray(config.start_vertices, dtype=np.int64)
        if starts_once.size and (starts_once.min() < 0 or starts_once.max() >= g.n):
            raise ValueError("start vertex out of range")
    else:
        starts_once = np.arange(g.n, dtype=np.int64)
    starts = np.tile(starts_once, config.walks_per_vertex)
    num_walks = starts.shape[0]

    walks = np.full((num_walks, config.walk_length), PAD, dtype=np.int64)
    if num_walks == 0 or g.n == 0:
        return WalkCorpus(walks, num_vertices=g.n)
    walks[:, 0] = starts
    if config.walk_length == 1:
        return WalkCorpus(walks, num_vertices=g.n)

    # One independent stream per stepper keeps results reproducible and
    # lets a future multi-process split reuse the same spawning scheme.
    rng = np.random.default_rng(spawn_seeds(config.seed, 1)[0])
    stepper = _make_stepper(g, mode, config)
    _step_walks_masked(stepper, starts, walks, rng)
    return WalkCorpus(walks, num_vertices=g.n)


def _step_walks_masked(stepper, starts, walks, rng) -> None:
    """The reference stepping loop: masked advance of the live walk set.

    This is the reproducibility anchor for walk generation — the
    ``workers=1`` path runs exactly this loop, and the golden pipeline
    checksum pins its draws. The batched frontier loop below
    (:func:`_step_walks_dense`) must stay bitwise-identical to it on
    dead-end-free graphs (``tests/walks/test_frontier.py``).
    """
    from repro.resilience.lifecycle import current_cancel_scope
    from repro.resilience.supervisor import current_heartbeat

    heartbeat = current_heartbeat()
    scope = current_cancel_scope()
    num_walks, walk_length = walks.shape
    cur = starts.copy()
    active = np.ones(num_walks, dtype=bool)
    state = stepper.initial_state(num_walks)
    for step in range(1, walk_length):
        heartbeat.beat()  # liveness signal for the supervisor watchdog
        scope.check()  # cooperative cancel: one poll per vectorized hop
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        nxt, ok, state = stepper.step(cur[idx], idx, state, rng)
        landed = idx[ok]
        walks[landed, step] = nxt[ok]
        cur[landed] = nxt[ok]
        active[idx[~ok]] = False


def _step_walks_dense(stepper, starts, walk_length, rng) -> np.ndarray:
    """Frontier-batched stepping for graphs where no walk can die.

    When every vertex has an out-arc (and the mode is not temporal), the
    masked loop's bookkeeping — ``flatnonzero`` over the always-full
    active set, per-step fancy scatter writes, the ``ok`` re-masking
    inside every stepper — is pure overhead: the frontier is the whole
    walk set at every step. This loop advances that full frontier with
    one vectorized draw per wave via ``stepper.step_dense`` and writes
    whole columns contiguously (the walk matrix is built transposed,
    ``(length, walks)``, and returned as its transpose).

    Draw-equivalence: ``step_dense`` consumes the RNG stream in exactly
    the order the masked stepper does when all walks are alive, so for a
    fixed seed the result is bitwise-identical to the reference loop —
    ~3x faster on the bench corpus. Used by the parallel chunk workers;
    the ``workers=1`` path keeps the reference loop above.
    """
    from repro.resilience.lifecycle import current_cancel_scope
    from repro.resilience.supervisor import current_heartbeat

    heartbeat = current_heartbeat()
    scope = current_cancel_scope()
    num_walks = starts.shape[0]
    walks = np.empty((walk_length, num_walks), dtype=np.int64)
    walks[0] = starts
    cur = starts
    state = stepper.initial_state(num_walks)
    for step in range(1, walk_length):
        heartbeat.beat()
        scope.check()
        cur, state = stepper.step_dense(cur, state, rng)
        walks[step] = cur
    return walks.T


def _chunk_walks(args: tuple) -> np.ndarray:
    """Generate one chunk of walks (serial engine on a start slice)."""
    g, config, starts, seed_state = args[:4]
    chunk_config = RandomWalkConfig(
        walks_per_vertex=1,
        walk_length=config.walk_length,
        mode=config.mode,
        time_window=config.time_window,
        p=config.p,
        q=config.q,
        seed=seed_state,
        start_vertices=starts,
    )
    # Straight to the serial engine: chunks must not re-enter the public
    # generate_walks(), which would nest spans and double-count metrics.
    return _generate_walks_serial(g, chunk_config).walks


def _chunk_task(args: tuple) -> np.ndarray:
    """Module-level worker (picklable) returning one chunk of walks."""
    return _chunk_walks(args)


@dataclass(frozen=True)
class _ShmChunkTask:
    """Everything a chunk worker needs, with zero graph bytes attached.

    The legacy ``_chunk_task`` tuples pickle the whole :class:`Graph`
    into every item; these tasks carry only shared-memory *handles* for
    the (mode-specific) stepping arrays plus the chunk's scalars, so a
    task crosses the pool pipe in a few hundred bytes and precomputed
    structures (alias tables, row-sorted adjacency) are built once in
    the parent instead of once per chunk per worker.
    """

    mode: WalkMode
    walk_length: int
    time_window: float | None
    p: float
    q: float
    seed: int
    starts: np.ndarray
    lo: int
    hi: int
    out: "object"  # SharedArraySpec of the (rows, walk_length) result block
    arrays: dict  # name -> SharedArraySpec of the stepping arrays
    dense_ok: bool


def _export_walk_arrays(g: Graph, mode: WalkMode, scope) -> tuple[dict, bool]:
    """Copy the stepping arrays for ``mode`` into shared segments.

    Returns ``(specs, dense_ok)`` where ``specs`` maps array name to
    :class:`~repro.parallel.shm.SharedArraySpec` and ``dense_ok`` says
    whether chunk workers may run the frontier-batched loop (every
    vertex has an out-arc, so no walk can ever die; temporal walks are
    excluded because their eligible arc set shrinks over time).
    """
    arrays: dict[str, np.ndarray] = {"indptr": g.indptr}
    if mode in (WalkMode.UNIFORM, WalkMode.WEIGHTED, WalkMode.VERTEX_WEIGHTED):
        arrays["indices"] = g.indices
    if mode in (WalkMode.WEIGHTED, WalkMode.VERTEX_WEIGHTED):
        weights = (
            g.edge_weights
            if mode is WalkMode.WEIGHTED
            else g.vertex_weights[g.indices]
        )
        table = build_arc_alias(g.indptr, weights)
        arrays["prob"] = table.prob
        arrays["alias"] = table.alias
    elif mode is WalkMode.NODE2VEC:
        order = _sort_rows_by_value(g.indptr, g.indices)
        arrays["sorted_indices"] = np.ascontiguousarray(g.indices[order])
    elif mode is WalkMode.TEMPORAL:
        order = _sort_rows_by_time(g.indptr, g.edge_times)
        arrays["sorted_indices"] = np.ascontiguousarray(g.indices[order])
        arrays["sorted_times"] = np.ascontiguousarray(g.edge_times[order])
    specs = {name: scope.from_array(arr).spec for name, arr in arrays.items()}
    degrees = np.diff(g.indptr)
    dense_ok = (
        mode is not WalkMode.TEMPORAL
        and degrees.size > 0
        and int(degrees.min()) > 0
    )
    return specs, dense_ok


def _stepper_from_shared(task: _ShmChunkTask, arrs: dict) -> object:
    """Rebuild the task's stepper over shared-memory array views."""
    if task.mode is WalkMode.UNIFORM:
        return _UniformStepper(arrs["indptr"], arrs["indices"])
    if task.mode in (WalkMode.WEIGHTED, WalkMode.VERTEX_WEIGHTED):
        table = AliasTable(prob=arrs["prob"], alias=arrs["alias"])
        return _AliasStepper(arrs["indptr"], arrs["indices"], table)
    if task.mode is WalkMode.NODE2VEC:
        return _Node2VecStepper(arrs["indptr"], arrs["sorted_indices"], task.p, task.q)
    return _TemporalStepper(
        arrs["indptr"],
        arrs["sorted_indices"],
        arrs["sorted_times"],
        task.time_window,
    )


def _chunk_task_shm(task: _ShmChunkTask) -> tuple[int, int, float]:
    """Worker that writes its chunk straight into the shared walk block.

    Returns only the row bounds it filled plus its own wall-clock
    seconds (the parent records per-chunk latency) — nothing heavyweight
    crosses the pool's result pipe. Re-running a chunk (reassigned after
    a worker death) rewrites the same rows with the same seed, so the
    operation is idempotent. Graph-array attachments are cached per
    process (:func:`repro.parallel.shm.attach_cached`): persistent-pool
    workers map each segment once per run, not once per chunk.

    The chunk rng is spawned exactly as the legacy serial path spawns
    it from a chunk config (``spawn_seeds(seed, 1)[0]``), so for a fixed
    ``(seed, workers)`` pair this path is bitwise-identical to the
    pre-batching chunk worker.
    """
    from repro.parallel.shm import SharedArray, attach_cached

    started = time.perf_counter()
    arrs = {name: attach_cached(spec).array for name, spec in task.arrays.items()}
    stepper = _stepper_from_shared(task, arrs)
    rng = np.random.default_rng(spawn_seeds(task.seed, 1)[0])
    if task.dense_ok and task.walk_length > 1:
        walks = _step_walks_dense(stepper, task.starts, task.walk_length, rng)
    else:
        walks = np.full((task.starts.shape[0], task.walk_length), PAD, dtype=np.int64)
        walks[:, 0] = task.starts
        if task.walk_length > 1:
            _step_walks_masked(stepper, task.starts, walks, rng)
    # The out block changes every run and can be large: attach/close per
    # chunk instead of pinning it in the process-level cache.
    out = SharedArray.attach(task.out)
    try:
        out.array[task.lo : task.hi] = walks
    finally:
        out.close()
    return task.lo, task.hi, time.perf_counter() - started


def _chunk_tasks(
    g: Graph, config: RandomWalkConfig, chunks: int
) -> list[tuple] | None:
    """Per-chunk ``_chunk_task`` argument tuples (None if no walks).

    Chunk seeds are spawned deterministically from ``config.seed``, so
    the task list — and therefore the assembled corpus — depends only on
    ``(seed, chunk count)``, not on how chunks are scheduled. Each tuple
    carries the chunk's ``(lo, hi)`` row range in the assembled corpus.
    """
    from repro.parallel.pool import chunk_bounds
    from repro.parallel.seeding import spawn_seeds

    if config.start_vertices is not None:
        starts_once = np.asarray(config.start_vertices, dtype=np.int64)
        if starts_once.size and (starts_once.min() < 0 or starts_once.max() >= g.n):
            raise ValueError("start vertex out of range")
    else:
        starts_once = np.arange(g.n, dtype=np.int64)
    starts = np.tile(starts_once, config.walks_per_vertex)
    if starts.size == 0:
        return None
    bounds = chunk_bounds(starts.shape[0], chunks)
    # SeedSequence state is a plain int tuple -> picklable across processes.
    seeds = [
        int(s.generate_state(1)[0])
        for s in spawn_seeds(config.seed, len(bounds))
    ]
    return [
        (g, config, starts[lo:hi], seed, lo, hi)
        for (lo, hi), seed in zip(bounds, seeds)
    ]


def _empty_corpus(g: Graph, config: RandomWalkConfig) -> WalkCorpus:
    return WalkCorpus(
        np.full((0, config.walk_length), PAD, dtype=np.int64),
        num_vertices=g.n,
    )


def _generate_walks_parallel(
    g: Graph,
    config: RandomWalkConfig,
    ctx,
    keep_shared: bool = False,
) -> WalkCorpus:
    """Fan chunks out to a pool; rows land in one shared-memory block.

    Workers write into the block in place and return only row bounds, so
    a multi-GB corpus is never pickled through the pool's result pipe.
    The stepping arrays travel the same way: the parent exports CSR (and
    any mode-specific precomputation — alias tables, row-sorted
    adjacency) into shared segments once, and every chunk task carries
    only the handles. Falls back to the graph-pickling path on platforms
    without POSIX shared memory.
    """
    from repro.parallel.pool import parallel_map
    from repro.parallel.shm import (
        SHM_AVAILABLE,
        SharedArray,
        release_cached,
        shared_arrays,
    )

    workers = ctx.resolve_workers()
    tasks = _chunk_tasks(g, config, workers)
    if tasks is None:
        return _empty_corpus(g, config)
    if not SHM_AVAILABLE:  # pragma: no cover - exotic platforms only
        chunks = parallel_map(ctx.wrap_task(_chunk_task), tasks, workers=workers)
        return WalkCorpus(np.vstack(chunks), num_vertices=g.n)

    mode = WalkMode(config.mode)
    _validate_mode(g, mode)
    total_rows = tasks[-1][5]
    shared = SharedArray.create((total_rows, config.walk_length), np.int64)
    try:
        with shared_arrays() as scope:
            specs, dense_ok = _export_walk_arrays(g, mode, scope)
            shm_tasks = [
                _ShmChunkTask(
                    mode=mode,
                    walk_length=config.walk_length,
                    time_window=config.time_window,
                    p=config.p,
                    q=config.q,
                    seed=seed,
                    starts=starts,
                    lo=lo,
                    hi=hi,
                    out=shared.spec,
                    arrays=specs,
                    dense_ok=dense_ok,
                )
                for (_g, _config, starts, seed, lo, hi) in tasks
            ]
            bounds = parallel_map(
                ctx.wrap_task(_chunk_task_shm),
                shm_tasks,
                workers=workers,
                supervisor=ctx.supervisor,
            )
        # A serial-fallback pass runs chunk tasks in this process and
        # leaves its graph attachments in the local cache; drop them now
        # that the segments are unlinked.
        for spec in specs.values():
            release_cached(spec.name)
        rec = current_recorder()
        if rec.enabled:
            for lo, hi, seconds in bounds:
                rec.observe("walks.chunk_seconds", seconds)
                rec.event(
                    "walks.chunk",
                    level="debug",
                    rows=hi - lo,
                    seconds=round(seconds, 6),
                )
    except BaseException:
        shared.destroy()
        raise
    if keep_shared:
        return WalkCorpus(shared.array, num_vertices=g.n, shared=shared)
    walks = shared.copy()
    shared.destroy()
    return WalkCorpus(walks, num_vertices=g.n)


def _walk_fingerprint(g: Graph, config: RandomWalkConfig, chunks: int) -> dict:
    """Identity of a checkpointed walk job; mismatches refuse to resume."""
    starts = config.start_vertices
    return {
        "n": int(g.n),
        "num_edges": int(g.num_edges),
        "directed": bool(g.directed),
        "walks_per_vertex": config.walks_per_vertex,
        "walk_length": config.walk_length,
        "mode": str(WalkMode(config.mode).value),
        "time_window": config.time_window,
        "p": config.p,
        "q": config.q,
        "seed": config.seed,
        "chunks": int(chunks),
        "start_vertices": None if starts is None else [int(v) for v in starts],
    }


def _generate_walks_checkpointed(
    g: Graph,
    config: RandomWalkConfig,
    ctx,
    *,
    chunks: int,
) -> WalkCorpus:
    from repro.parallel.pool import parallel_map

    tasks = _chunk_tasks(g, config, chunks)
    if tasks is None:
        return _empty_corpus(g, config)
    store = ctx.fingerprinted(
        _walk_fingerprint(g, config, len(tasks)),
        what="walk checkpoint",
        described="walk configuration",
    )
    workers = ctx.resolve_workers()
    rec = current_recorder()

    done: dict[int, np.ndarray] = {}
    if ctx.resume:
        for i in range(len(tasks)):
            ckpt = store.load(f"walks-{i:04d}")
            if ckpt is None:
                continue
            done[i] = ckpt.arrays["walks"]
        if done:
            rec.inc("walks.chunks_resumed", len(done))
            rec.event(
                "walks.resume", chunks=len(done), of=len(tasks)
            )

    from repro.resilience.guard import clamp_wave
    from repro.resilience.lifecycle import current_cancel_scope

    scope = current_cancel_scope()
    missing = [i for i in range(len(tasks)) if i not in done]
    # Compute in waves of `workers` chunks, checkpointing after each
    # wave, so a kill mid-job loses at most one wave of work. Under
    # memory pressure the guard ladder clamps the wave to one chunk —
    # re-read per wave so a mid-run breach takes effect immediately.
    # Wave size is pure scheduling (the fingerprint counts chunks), so
    # shrinking it never perturbs resume identity.
    lo, wave_index = 0, 0
    while lo < len(missing):
        # Completed waves are already durable; raising here (cancel or
        # deadline) loses at most the wave in flight, and chunk seeds
        # are deterministic so resume recomputes it bit-for-bit.
        scope.check()
        wave = clamp_wave(max(workers, 1))
        batch = missing[lo : lo + wave]
        lo += wave
        wave_started = time.perf_counter()
        computed = parallel_map(
            ctx.wrap_task(_chunk_task),
            [tasks[i] for i in batch],
            workers=workers,
            supervisor=ctx.supervisor,
        )
        for i, walks in zip(batch, computed):
            store.save(f"walks-{i:04d}", {"walks": walks}, {"chunk": i})
            done[i] = walks
        if rec.enabled:
            wave_seconds = time.perf_counter() - wave_started
            rec.observe("walks.wave_seconds", wave_seconds)
            rec.inc("walks.chunks_computed", len(batch))
            rec.event(
                "walks.wave",
                wave=wave_index,
                chunks=len(batch),
                seconds=round(wave_seconds, 6),
            )
        wave_index += 1
    ordered = [done[i] for i in range(len(tasks))]
    return WalkCorpus(np.vstack(ordered), num_vertices=g.n)


def _validate_mode(g: Graph, mode: WalkMode) -> None:
    if mode is WalkMode.WEIGHTED and g.edge_weights is None:
        raise ValueError("WEIGHTED walk requires edge weights")
    if mode is WalkMode.VERTEX_WEIGHTED and g.vertex_weights is None:
        raise ValueError("VERTEX_WEIGHTED walk requires vertex weights")
    if mode is WalkMode.TEMPORAL and g.edge_times is None:
        raise ValueError("TEMPORAL walk requires edge timestamps")


def _make_stepper(g: Graph, mode: WalkMode, config: RandomWalkConfig):
    if mode is WalkMode.UNIFORM:
        return _UniformStepper.from_graph(g)
    if mode is WalkMode.WEIGHTED:
        return _AliasStepper.from_graph(g, g.edge_weights)
    if mode is WalkMode.VERTEX_WEIGHTED:
        target_weights = g.vertex_weights[g.indices]
        return _AliasStepper.from_graph(g, target_weights)
    if mode is WalkMode.NODE2VEC:
        return _Node2VecStepper.from_graph(g, config.p, config.q)
    return _TemporalStepper.from_graph(g, config.time_window)


class _UniformStepper:
    """Uniform neighbor choice: next = indices[indptr[v] + floor(u * deg)].

    Steppers take raw CSR arrays (not a :class:`Graph`) so chunk workers
    can rebuild them over shared-memory views without reassembling — or
    pickling — the graph object; :meth:`from_graph` is the parent-side
    convenience constructor.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices
        self.degrees = np.diff(indptr)

    @classmethod
    def from_graph(cls, g: Graph) -> "_UniformStepper":
        return cls(g.indptr, g.indices)

    def initial_state(self, num_walks: int) -> None:
        return None

    def step(
        self,
        cur: np.ndarray,
        walk_ids: np.ndarray,
        state: None,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, None]:
        deg = self.degrees[cur]
        ok = deg > 0
        nxt = np.full(cur.shape[0], PAD, dtype=np.int64)
        if np.any(ok):
            u = rng.random(int(ok.sum()))
            offs = (u * deg[ok]).astype(np.int64)
            np.minimum(offs, deg[ok] - 1, out=offs)
            nxt[ok] = self.indices[self.indptr[cur[ok]] + offs]
        return nxt, ok, None

    def step_dense(
        self, cur: np.ndarray, state: None, rng: np.random.Generator
    ) -> tuple[np.ndarray, None]:
        """Full-frontier hop; draw-for-draw identical to :meth:`step`
        when every walk is alive (no masking, no scatter)."""
        deg = self.degrees[cur]
        u = rng.random(cur.shape[0])
        offs = (u * deg).astype(np.int64)
        np.minimum(offs, deg - 1, out=offs)
        return self.indices[self.indptr[cur] + offs], None


class _AliasStepper:
    """Weighted neighbor choice via flat per-vertex alias tables.

    The table is built once (parent-side via :meth:`from_graph`, a
    Python-loop Vose construction) and shared with chunk workers as two
    flat arrays — workers must never rebuild it per chunk.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, table: AliasTable
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.degrees = np.diff(indptr)
        self.table = table
        # Vertices whose arc weights are all zero cannot move (a zero-weight
        # neighborhood has no valid draw under the proportional rule... but
        # we follow the uniform-degeneration convention from build_arc_alias
        # only when *some* weight is positive elsewhere; an all-zero row is
        # treated as uniform too, which keeps walks alive on such rows).

    @classmethod
    def from_graph(cls, g: Graph, arc_weights: np.ndarray) -> "_AliasStepper":
        return cls(g.indptr, g.indices, build_arc_alias(g.indptr, arc_weights))

    def initial_state(self, num_walks: int) -> None:
        return None

    def step(
        self,
        cur: np.ndarray,
        walk_ids: np.ndarray,
        state: None,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, None]:
        deg = self.degrees[cur]
        ok = deg > 0
        nxt = np.full(cur.shape[0], PAD, dtype=np.int64)
        if np.any(ok):
            arcs = self.table.sample(self.indptr[cur[ok]], deg[ok], rng)
            nxt[ok] = self.indices[arcs]
        return nxt, ok, None

    def step_dense(
        self, cur: np.ndarray, state: None, rng: np.random.Generator
    ) -> tuple[np.ndarray, None]:
        arcs = self.table.sample(self.indptr[cur], self.degrees[cur], rng)
        return self.indices[arcs], None


class _TemporalStepper:
    """Time-increasing walks with optional window constraint.

    Arcs inside each CSR row are pre-sorted by timestamp. Each step finds,
    per walk, the eligible arc range ``(first time > t_cur,
    last time <= t_cur + window]`` with a vectorized segment binary search
    and samples uniformly inside it. Walk state is the timestamp of the
    last traversed arc (-inf at the start, so the first hop is free).

    Temporal walks can die at any vertex (the eligible range empties), so
    there is no ``step_dense``: this mode always runs the masked loop.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        sorted_indices: np.ndarray,
        sorted_times: np.ndarray,
        time_window: float | None,
    ) -> None:
        self.indptr = indptr
        self.window = time_window
        self.sorted_indices = sorted_indices
        self.sorted_times = sorted_times

    @classmethod
    def from_graph(cls, g: Graph, time_window: float | None) -> "_TemporalStepper":
        order = _sort_rows_by_time(g.indptr, g.edge_times)
        return cls(
            g.indptr,
            np.ascontiguousarray(g.indices[order]),
            np.ascontiguousarray(g.edge_times[order]),
            time_window,
        )

    def initial_state(self, num_walks: int) -> np.ndarray:
        return np.full(num_walks, -np.inf)

    def step(
        self,
        cur: np.ndarray,
        walk_ids: np.ndarray,
        state: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t_cur = state[walk_ids]
        row_start = self.indptr[cur]
        row_stop = self.indptr[cur + 1]
        lo = _segment_searchsorted(self.sorted_times, row_start, row_stop, t_cur, side="right")
        if self.window is not None:
            # A fresh walk (t = -inf) has no previous arc, so no window cap.
            cap = np.where(np.isinf(t_cur), np.inf, t_cur + self.window)
            hi = _segment_searchsorted(self.sorted_times, row_start, row_stop, cap, side="right")
        else:
            hi = row_stop
        count = hi - lo
        ok = count > 0
        nxt = np.full(cur.shape[0], PAD, dtype=np.int64)
        if np.any(ok):
            u = rng.random(int(ok.sum()))
            pick = lo[ok] + (u * count[ok]).astype(np.int64)
            np.minimum(pick, hi[ok] - 1, out=pick)
            nxt[ok] = self.sorted_indices[pick]
            state[walk_ids[ok]] = self.sorted_times[pick]
        return nxt, ok, state


class _Node2VecStepper:
    """Second-order biased walks (Grover & Leskovec 2016).

    From current vertex v with previous vertex u, a neighbor x is chosen
    with unnormalized weight 1/p if x == u (return), 1 if x is adjacent
    to u (triangle step), 1/q otherwise (exploration). Implemented with
    the node2vec authors' rejection-sampling trick: draw a uniform
    neighbor, accept with weight/max_weight — fully vectorized across
    walks, with adjacency tests done as a batched segment binary search
    over row-sorted CSR. The first hop (no previous vertex) is uniform.
    """

    MAX_REJECTION_ROUNDS = 64

    def __init__(
        self, indptr: np.ndarray, sorted_indices: np.ndarray, p: float, q: float
    ) -> None:
        self.indptr = indptr
        self.degrees = np.diff(indptr)
        self.p = p
        self.q = q
        # Row-sorted adjacency for O(log deg) membership tests; the sort
        # happens once in from_graph (or the exporting parent), never in
        # chunk workers.
        self.sorted_indices = sorted_indices
        self.w_return = 1.0 / p
        self.w_triangle = 1.0
        self.w_explore = 1.0 / q
        self.w_max = max(self.w_return, self.w_triangle, self.w_explore)

    @classmethod
    def from_graph(cls, g: Graph, p: float, q: float) -> "_Node2VecStepper":
        order = _sort_rows_by_value(g.indptr, g.indices)
        return cls(g.indptr, np.ascontiguousarray(g.indices[order]), p, q)

    def initial_state(self, num_walks: int) -> np.ndarray:
        return np.full(num_walks, -1, dtype=np.int64)  # previous vertex

    def _uniform_pick(
        self, cur: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        deg = self.degrees[cur]
        u = rng.random(cur.shape[0])
        offs = (u * deg).astype(np.int64)
        np.minimum(offs, deg - 1, out=offs)
        return self.sorted_indices[self.indptr[cur] + offs]

    def _is_adjacent(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Vectorized: is x a neighbor of u? (both arrays, per element)."""
        starts = self.indptr[u]
        stops = self.indptr[u + 1]
        pos = _segment_searchsorted(
            self.sorted_indices, starts, stops, x, side="left"
        )
        in_range = pos < stops
        found = np.zeros(u.shape[0], dtype=bool)
        safe = np.minimum(pos, self.sorted_indices.shape[0] - 1)
        found[in_range] = self.sorted_indices[safe[in_range]] == x[in_range]
        return found

    def _biased_pick(
        self, cur: np.ndarray, prev: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One rejection-sampled hop for every (cur, prev) pair."""
        result = np.full(cur.shape[0], PAD, dtype=np.int64)
        pending = np.ones(cur.shape[0], dtype=bool)
        # First hops (prev == -1) are plain uniform draws.
        fresh = prev < 0
        if np.any(fresh):
            result[fresh] = self._uniform_pick(cur[fresh], rng)
            pending[fresh] = False
        for _ in range(self.MAX_REJECTION_ROUNDS):
            idx = np.flatnonzero(pending)
            if idx.size == 0:
                break
            cand = self._uniform_pick(cur[idx], rng)
            w = np.where(
                cand == prev[idx],
                self.w_return,
                np.where(
                    self._is_adjacent(prev[idx], cand),
                    self.w_triangle,
                    self.w_explore,
                ),
            )
            accept = rng.random(idx.size) < w / self.w_max
            result[idx[accept]] = cand[accept]
            pending[idx[accept]] = False
        still = np.flatnonzero(pending)
        if still.size:  # pathological p/q: fall back to uniform
            result[still] = self._uniform_pick(cur[still], rng)
        return result

    def step(
        self,
        cur: np.ndarray,
        walk_ids: np.ndarray,
        state: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        deg = self.degrees[cur]
        ok = deg > 0
        nxt = np.full(cur.shape[0], PAD, dtype=np.int64)
        if np.any(ok):
            nxt[ok] = self._biased_pick(cur[ok], state[walk_ids[ok]], rng)
            state[walk_ids[ok]] = cur[ok]
        return nxt, ok, state

    def step_dense(
        self, cur: np.ndarray, state: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # The new state (previous vertex) is exactly the frontier we just
        # left; the caller never mutates it, so no copy is needed.
        return self._biased_pick(cur, state, rng), cur


def _sort_rows_by_value(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Permutation sorting each CSR row's arcs by target id."""
    n = indptr.shape[0] - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return np.lexsort((values, rows))


def _sort_rows_by_time(indptr: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Permutation sorting each CSR row's arcs by timestamp.

    Implemented as one global stable argsort of (row, time) pairs, which
    keeps the row blocks contiguous — no Python-level per-row loop.
    """
    n = indptr.shape[0] - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return np.lexsort((times, rows))


def _segment_searchsorted(
    sorted_values: np.ndarray,
    seg_start: np.ndarray,
    seg_stop: np.ndarray,
    needles: np.ndarray,
    *,
    side: str = "right",
) -> np.ndarray:
    """Vectorized ``searchsorted`` restricted to per-query segments.

    For each query ``i``, returns the insertion point of ``needles[i]``
    within ``sorted_values[seg_start[i]:seg_stop[i]]`` (plus the offset
    ``seg_start[i]``), i.e. a batched binary search over CSR rows.
    """
    lo = seg_start.astype(np.int64).copy()
    hi = seg_stop.astype(np.int64).copy()
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    # Classic branch-free bisection: ~log2(max segment length) passes.
    while True:
        unfinished = lo < hi
        if not np.any(unfinished):
            break
        mid = (lo + hi) // 2
        vals = sorted_values[np.minimum(mid, sorted_values.shape[0] - 1)]
        if side == "right":
            go_right = unfinished & (vals <= needles)
        else:
            go_right = unfinished & (vals < needles)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(unfinished & ~go_right, mid, hi)
    return lo
