"""Shard-parallel walk generation over a memory-mapped graph store.

The in-memory engine (:mod:`repro.walks.engine`) advances every walk in
lock step over heap CSR arrays. This engine walks a
:class:`repro.graph.store.GraphStore` straight off its read-only mmap'd
CSR arrays instead. One frontier-batched stepper advances the walks
inside one *row range* ``[lo, hi)`` of the store's (shard-contiguous)
vertex ids:

- **In one process** the stepper gets one range, the whole vertex set.
  Every walk advances in lock step in a single round and no walk is
  ever parked.
- **With several workers** each shard's row range is a task. A walk
  that hops across a shard boundary is **parked** and handed to the
  owning shard at the next **exchange round** (a BSP-style barrier);
  the loop ends when every walk has finished or died. Exchange rounds
  are how walks move between processes; inside one process they would
  buy nothing, since every round touches every shard's pages anyway.

Only the pages of the rows a walk visits are ever read, and those are
clean, read-only mmap pages the kernel can drop at will. What the run
holds on the heap is the corpus plus O(walks) stepper state.

**Determinism.** The corpus must be bitwise-identical for any shard
count, worker count, and scheduling order — shard layout is a runtime
concern, never model identity. Sequential RNG streams cannot deliver
that (the interleaving of draws would depend on which walks share a
shard), so every draw here is *counter-based*: step ``s`` of walk ``w``
consumes ``u = mix64(key, w, s)`` — a SplitMix64-style hash of the walk
id and step index under a key derived from ``config.seed``. The draw
depends only on (seed, walk, step); park/resume and exchange order
cannot perturb it. The merged corpus therefore equals the single-range
corpus byte for byte (the acceptance test of this subsystem), and a
killed-and-respawned shard task rewrites exactly the slots it would
have written (the chaos test).

Draws differ from the in-memory engine's ``Generator``-stream draws, so
the sharded corpus is its own reproducibility anchor
(``tests/walks/test_shard_golden.py``) rather than a byte-twin of
``generate_walks`` on the equivalent in-memory graph.

Modes: uniform, weighted (binary search over the store's per-row
cumulative weights — no in-RAM alias tables), vertex-weighted (same,
over target-vertex weights), temporal (rows are time-sorted at build;
eligibility is a segment binary search). ``node2vec`` is not supported
out-of-core: its rejection sampler consumes an unbounded number of
draws per step, which breaks the fixed (walk, step) counter addressing.

Each step writes its tokens in **original** vertex ids, mapped through
the store's persisted permutation as they are written, so downstream
stages (training, detection, labels) see the same id space as the
in-memory path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.obs.recorder import current_recorder
from repro.walks.corpus import WalkCorpus
from repro.walks.engine import (
    PAD,
    RandomWalkConfig,
    WalkMode,
    _segment_searchsorted,
)

__all__ = ["generate_walks_sharded", "hash_uniform"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LANE_SALT = 0xD1B54A32D192ED03
_STEP_MULT = np.uint64(0xBF58476D1CE4E5B9)
#: Walks the stepper advances together (see :func:`_advance`).
_CHUNK = 1 << 15


def _mix64_int(x: int) -> int:
    """SplitMix64 finalizer on a Python int (key derivation only)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix64(z: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer, in place on a uint64 array it owns."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def derive_key(seed: int | None) -> int:
    """64-bit hash key from a walk config seed (entropy-random for None)."""
    entropy = np.random.SeedSequence(seed).entropy
    folded = (entropy ^ (entropy >> 64) ^ (entropy >> 128)) & _MASK64
    return _mix64_int(folded ^ _GOLDEN)


def _walk_prefix(key: int, walk_ids: np.ndarray, lane: int = 0) -> np.ndarray:
    """The walk-id half of the counter hash, computed once per walk."""
    w = np.asarray(walk_ids, dtype=np.uint64)
    k = np.uint64((key ^ _mix64_int(lane * _LANE_SALT + _GOLDEN)) & _MASK64)
    return _mix64(w * np.uint64(_GOLDEN) ^ k)


def _step_uniform(prefix: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """53-bit uniforms in [0, 1) for (walk prefix, step) pairs."""
    z = _mix64(prefix + np.asarray(steps, dtype=np.uint64) * _STEP_MULT)
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def hash_uniform(
    key: int, walk_ids: np.ndarray, steps: np.ndarray, lane: int = 0
) -> np.ndarray:
    """Counter-based uniforms in [0, 1): one per (walk, step) pair.

    ``u[i] = f(key, walk_ids[i], steps[i], lane)`` with no sequential
    state — the property the whole sharded engine's determinism rests
    on. 53-bit mantissa draws, matching ``Generator.random`` precision.
    """
    return _step_uniform(_walk_prefix(key, walk_ids, lane), steps)


# ---------------------------------------------------------------------------
# Stepper


class _Walks(NamedTuple):
    """Walks in flight, one entry per walk."""

    pos: np.ndarray  # flat output slot of the next token: walk id * length + step
    cur: np.ndarray  # current vertex (store id space)
    step: np.ndarray  # next column to write, uint64 (it feeds the hash)
    prefix: np.ndarray  # _walk_prefix of the walk id
    tprev: np.ndarray | None  # temporal mode only: time of the last arc

    def take(self, index) -> "_Walks":
        return _Walks(*(None if a is None else a[index] for a in self))


def _concat(parts: list[_Walks]) -> _Walks | None:
    parts = [p for p in parts if p is not None and p.pos.size]
    if len(parts) <= 1:
        return parts[0] if parts else None
    return _Walks(
        *(None if col[0] is None else np.concatenate(col) for col in zip(*parts))
    )


def _draw(arrays: dict, mode: WalkMode, time_window, walks: _Walks):
    """One step's next vertices (``PAD`` where no arc is eligible) and,
    in temporal mode, the times of the arcs taken."""
    indices = arrays["indices"]
    row_start = arrays["indptr"][walks.cur]
    row_stop = arrays["row_stop"][walks.cur]
    u = _step_uniform(walks.prefix, walks.step)
    tnew = None
    if mode is WalkMode.TEMPORAL:
        times = arrays["times"]
        elig_lo = _segment_searchsorted(
            times, row_start, row_stop, walks.tprev, side="right"
        )
        if time_window is not None:
            cap = np.where(
                np.isinf(walks.tprev), np.inf, walks.tprev + time_window
            )
            elig_hi = _segment_searchsorted(
                times, row_start, row_stop, cap, side="right"
            )
        else:
            elig_hi = row_stop
        count = elig_hi - elig_lo
        ok = count > 0
        pick = elig_lo + (u * np.maximum(count, 1)).astype(np.int64)
        np.minimum(pick, np.maximum(elig_hi - 1, 0), out=pick)
        tnew = np.where(ok, np.take(times, pick, mode="clip"), walks.tprev)
    else:
        deg = row_stop - row_start
        ok = deg > 0
        safe_deg = np.maximum(deg, 1)
        offs = (u * safe_deg).astype(np.int64)
        np.minimum(offs, safe_deg - 1, out=offs)
        pick = row_start + offs
        if mode in (WalkMode.WEIGHTED, WalkMode.VERTEX_WEIGHTED):
            cum = (
                arrays["cum_weights"]
                if mode is WalkMode.WEIGHTED
                else arrays["cum_vertex_weights"]
            )
            total = cum[np.maximum(row_stop - 1, 0)] * ok
            positive = total > 0
            if np.any(positive):
                wpick = _segment_searchsorted(
                    cum, row_start, row_stop, u * total, side="left"
                )
                np.minimum(wpick, np.maximum(row_stop - 1, 0), out=wpick)
                # All-zero rows keep the uniform fallback pick, the
                # same degeneration convention as build_arc_alias.
                pick = np.where(positive, wpick, pick)
    nxt = np.take(indices, pick, mode="clip")
    if not ok.all():
        nxt[~ok] = PAD
    return nxt, tnew


def _advance(
    arrays: dict,
    lo: int,
    hi: int,
    walk_length: int,
    mode: WalkMode,
    time_window: float | None,
    walks: _Walks,
    out: np.ndarray,
) -> _Walks | None:
    """Advance ``walks`` until each finishes, dies, or leaves [lo, hi).

    Writes every token in original ids into the flat output ``out`` and
    returns the parked walks (those whose next vertex lives outside the
    range), or None. Over the whole vertex range nothing ever parks.

    Walks advance in lock step, :data:`_CHUNK` at a time: the step
    temporaries then stay small enough to be recycled by the allocator
    instead of being page-faulted in afresh on every step.
    """
    from repro.resilience.lifecycle import current_cancel_scope
    from repro.resilience.supervisor import current_heartbeat

    heartbeat = current_heartbeat()
    scope = current_cancel_scope()
    perm_ext = arrays["perm_ext"]
    whole = lo == 0 and hi == perm_ext.shape[0] - 1
    parked: list[_Walks] = []
    for first in range(0, walks.pos.size, _CHUNK):
        batch = walks.take(slice(first, first + _CHUNK))
        while batch.pos.size:
            heartbeat.beat()
            scope.check()
            nxt, tnew = _draw(arrays, mode, time_window, batch)
            # perm_ext[PAD] == PAD: a dead walk rewrites the PAD its slot holds.
            out[batch.pos] = perm_ext[nxt]
            step = batch.step + np.uint64(1)
            going = nxt != PAD
            going &= step < walk_length
            moved = _Walks(batch.pos + 1, nxt, step, batch.prefix, tnew)
            if not whole:
                inside = (nxt >= lo) & (nxt < hi)
                leaving = np.flatnonzero(going & ~inside)
                if leaving.size:
                    parked.append(moved.take(leaving))
                going &= inside
            batch = moved if going.all() else moved.take(np.flatnonzero(going))
    return _concat(parked)


def _route(walks: _Walks | None, bounds: np.ndarray) -> list[tuple[int, _Walks]]:
    """Bucket walks by the range owning their current vertex: one
    stable argsort, then contiguous slices."""
    if walks is None:
        return []
    if bounds.shape[0] == 2:
        return [(0, walks)]
    owner = np.searchsorted(bounds, walks.cur, side="right") - 1
    order = np.argsort(owner, kind="stable")
    walks = walks.take(order)
    cuts = np.searchsorted(owner[order], np.arange(bounds.shape[0]))
    return [
        (r, walks.take(slice(cuts[r], cuts[r + 1])))
        for r in range(bounds.shape[0] - 1)
        if cuts[r + 1] > cuts[r]
    ]


# ---------------------------------------------------------------------------
# Store arrays and the worker-side shard task


_OPEN_STORE: tuple = (None, None)


def _store_arrays(path: str, ident, names: tuple) -> dict:
    """A store's walk arrays as plain ndarray views over read-only mmaps.

    Cached per process for the last store opened, keyed by path *and*
    the manifest's integrity digest: pool workers outlive a map, and a
    store removed and rebuilt at the same path must not be walked
    through the old graph's mappings.
    """
    global _OPEN_STORE
    key = (path, ident, names)
    if _OPEN_STORE[0] != key:
        arrays = {
            name: np.load(
                Path(path) / f"{name}.npy", mmap_mode="r", allow_pickle=False
            ).view(np.ndarray)
            for name in names
        }
        arrays["row_stop"] = arrays["indptr"][1:]
        arrays["perm_ext"] = np.append(arrays["perm"], PAD)
        _OPEN_STORE = (key, arrays)
    return _OPEN_STORE[1]


@dataclass(frozen=True)
class _ShardTask:
    """One shard's work for one exchange round, picklable in O(batch).

    Carries the store *path* and identity — workers mmap the store
    themselves (cached per process) — so no CSR bytes ever cross the
    pool pipe, unlike the in-memory engine's shm export.
    """

    store_path: str
    store_ident: str | None
    array_names: tuple
    lo: int
    hi: int
    walk_length: int
    mode: WalkMode
    time_window: float | None
    walks: _Walks
    out: "object"  # SharedArraySpec of the (num_walks, walk_length) matrix


def _shard_task(task: _ShardTask) -> tuple[_Walks | None, int, float]:
    """Advance one shard's resident walks; returns (parked, advanced, secs).

    Idempotent by construction: draws are counter-based and a task
    writes exactly the output slots of the walks it carries, so a
    killed-and-respawned task (supervisor ladder) rewrites identical
    bytes.
    """
    from repro.parallel.shm import SharedArray

    started = time.perf_counter()
    arrays = _store_arrays(task.store_path, task.store_ident, task.array_names)
    out = SharedArray.attach(task.out)
    try:
        parked = _advance(
            arrays,
            task.lo,
            task.hi,
            task.walk_length,
            task.mode,
            task.time_window,
            task.walks,
            out.array.reshape(-1),
        )
    finally:
        out.close()
    return parked, int(task.walks.pos.size), time.perf_counter() - started


# ---------------------------------------------------------------------------
# Public engine


def generate_walks_sharded(
    store,
    config: RandomWalkConfig | None = None,
    *,
    context=None,
) -> WalkCorpus:
    """Generate the walk corpus from a :class:`GraphStore`.

    The result is bitwise-identical for any shard count and worker
    count at a fixed ``config.seed`` (see module docstring), with walk
    tokens in **original** vertex ids. Runtime policy (workers,
    supervision, cancellation, chaos hooks) comes from ``context``
    exactly as for :func:`repro.walks.engine.generate_walks`; the
    ``context.shards`` field, when set, caps how many shard tasks run
    concurrently per exchange round.

    Durable chunk checkpointing is not implemented for the sharded path
    (see docs/scaling.md): shard tasks are idempotent and cheap to
    recompute, so resilience comes from the supervisor respawn ladder
    instead.
    """
    from repro.pipeline.context import context_from_legacy

    ctx = context_from_legacy(context)
    config = config or RandomWalkConfig()
    mode = WalkMode(config.mode)
    _validate_store_mode(store, mode)

    n = int(store.n)
    starts_orig = _resolve_starts(config, n)
    walk_length = int(config.walk_length)
    rec = current_recorder()
    workers = ctx.resolve_workers()
    num_shards = int(store.num_shards)
    concurrency = min(workers, num_shards)
    if ctx.shards:
        concurrency = max(1, min(concurrency, int(ctx.shards)))

    with ctx.lifecycle(), rec.span(
        "walks.generate",
        n=n,
        mode=str(mode.value),
        walks_per_vertex=config.walks_per_vertex,
        walk_length=walk_length,
        workers=workers,
        shards=num_shards,
    ) as span:
        with rec.time("walks.generate_seconds") as timer:
            walks = _run_exchange_loop(store, config, ctx, starts_orig, concurrency)
        corpus = WalkCorpus(walks, num_vertices=n)
        if rec.enabled:
            walks_per_sec = corpus.num_walks / max(timer.seconds, 1e-9)
            rec.inc("walks.total", corpus.num_walks)
            rec.inc("walks.tokens", corpus.num_tokens)
            rec.set("walks.walks_per_sec", walks_per_sec)
            rec.inc("shard.walks", corpus.num_walks)
            rec.set("shard.shards", float(num_shards))
            span.annotate(
                walks=corpus.num_walks,
                tokens=corpus.num_tokens,
                walks_per_sec=round(walks_per_sec, 1),
            )
        return corpus


def _resolve_starts(config: RandomWalkConfig, n: int) -> np.ndarray:
    """Start vertices in *original* id space (the public API's space)."""
    if config.start_vertices is not None:
        starts = np.asarray(config.start_vertices, dtype=np.int64)
        if starts.size and (starts.min() < 0 or starts.max() >= n):
            raise ValueError("start vertex out of range")
        return starts
    return np.arange(n, dtype=np.int64)


def _validate_store_mode(store, mode: WalkMode) -> None:
    if mode is WalkMode.NODE2VEC:
        raise ValueError(
            "node2vec walks are not supported on a graph store: the "
            "rejection sampler draws an unbounded stream per step, which "
            "breaks counter-based shard determinism — use the in-memory "
            "engine for node2vec"
        )
    if mode is WalkMode.WEIGHTED and store.edge_weights is None:
        raise ValueError("WEIGHTED walk requires edge weights")
    if mode is WalkMode.VERTEX_WEIGHTED and store.vertex_weights is None:
        raise ValueError("VERTEX_WEIGHTED walk requires vertex weights")
    if mode is WalkMode.TEMPORAL and store.edge_times is None:
        raise ValueError("TEMPORAL walk requires edge timestamps")


def _mode_arrays(mode: WalkMode) -> tuple:
    names = ["indptr", "indices", "perm"]
    if mode is WalkMode.WEIGHTED:
        names.append("cum_weights")
    elif mode is WalkMode.VERTEX_WEIGHTED:
        names.append("cum_vertex_weights")
    elif mode is WalkMode.TEMPORAL:
        names.append("times")
    return tuple(names)


def _run_exchange_loop(
    store,
    config: RandomWalkConfig,
    ctx,
    starts_orig: np.ndarray,
    concurrency: int,
) -> np.ndarray:
    """The deterministic frontier-exchange loop; returns original-id walks."""
    mode = WalkMode(config.mode)
    walk_length = int(config.walk_length)
    n = int(store.n)
    num_walks = starts_orig.shape[0] * config.walks_per_vertex
    rec = current_recorder()
    store_path = str(store.path)
    store_ident = store.manifest.get("integrity", {}).get("digest")
    array_names = _mode_arrays(mode)
    arrays = _store_arrays(store_path, store_ident, array_names)

    # Without an arc to take every walk ends at its start vertex.
    steps_to_take = num_walks > 0 and walk_length > 1 and store.num_arcs > 0
    use_pool = concurrency > 1 and steps_to_take
    if use_pool:
        from repro.parallel.shm import SHM_AVAILABLE, SharedArray

        use_pool = SHM_AVAILABLE
    shared = None
    rounds = 0
    exchanged = 0
    try:
        if use_pool:
            shared = SharedArray.create((num_walks, walk_length), np.int64)
            walks = shared.array
            walks.fill(PAD)
        else:
            walks = np.full((num_walks, walk_length), PAD, dtype=np.int64)
        # Walk row i starts at original vertex starts_orig[i % len(starts_orig)],
        # matching the in-memory engine's row layout.
        walks[:, 0] = np.tile(starts_orig, config.walks_per_vertex)
        if not steps_to_take:
            return walks

        inverse = np.empty(n, dtype=np.int64)
        inverse[arrays["perm"]] = np.arange(n, dtype=np.int64)
        walk_ids = np.arange(num_walks, dtype=np.int64)
        start = _Walks(
            pos=walk_ids * walk_length + 1,
            cur=np.tile(inverse[starts_orig], config.walks_per_vertex),
            step=np.ones(num_walks, dtype=np.uint64),
            prefix=_walk_prefix(derive_key(config.seed), walk_ids),
            tprev=np.full(num_walks, -np.inf) if mode is WalkMode.TEMPORAL else None,
        )
        del inverse, walk_ids
        # One range over every vertex unless walks must move between
        # processes; then each shard's rows are one task per round.
        ranges = np.asarray(store.shard_bounds) if use_pool else np.array([0, n])
        queue = _route(start, ranges)
        del start
        out = walks.reshape(-1)

        while queue:
            ctx.check_cancelled()
            round_started = time.perf_counter()
            if use_pool:
                from repro.parallel.pool import parallel_map

                tasks = [
                    _ShardTask(
                        store_path=store_path,
                        store_ident=store_ident,
                        array_names=array_names,
                        lo=int(ranges[r]),
                        hi=int(ranges[r + 1]),
                        walk_length=walk_length,
                        mode=mode,
                        time_window=config.time_window,
                        walks=batch,
                        out=shared.spec,
                    )
                    for r, batch in queue
                ]
                results = parallel_map(
                    ctx.wrap_task(_shard_task),
                    tasks,
                    workers=concurrency,
                    supervisor=ctx.supervisor,
                )
                parked = _concat([r[0] for r in results])
                if rec.enabled:
                    for (_parked, advanced, seconds) in results:
                        rec.observe("shard.task_seconds", seconds)
                        rec.event(
                            "shard.task",
                            level="debug",
                            walks=int(advanced),
                            seconds=round(seconds, 6),
                        )
            else:
                parked = _concat(
                    [
                        _advance(
                            arrays,
                            int(ranges[r]),
                            int(ranges[r + 1]),
                            walk_length,
                            mode,
                            config.time_window,
                            batch,
                            out,
                        )
                        for r, batch in queue
                    ]
                )
            active = len(queue)
            queue = _route(parked, ranges)
            num_parked = 0 if parked is None else int(parked.pos.size)
            rounds += 1
            exchanged += num_parked
            if rec.enabled:
                rec.inc("shard.rounds")
                rec.observe(
                    "shard.round_seconds", time.perf_counter() - round_started
                )
                rec.event(
                    "shard.round",
                    level="debug",
                    round=rounds,
                    shards_active=active,
                    parked=num_parked,
                )
        if shared is not None:
            walks = shared.copy()
    finally:
        if shared is not None:
            shared.destroy()
    if rec.enabled:
        rec.inc("shard.exchanged", exchanged)
        rec.event(
            "shard.exchange_done",
            rounds=rounds,
            exchanged=exchanged,
            walks=num_walks,
        )
    return walks
