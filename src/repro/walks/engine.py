"""Vectorized constrained random walks (paper Section II-A): the walk engine.

Modes:

- ``UNIFORM``          — uniform random neighbor (the basic walk).
- ``WEIGHTED``         — P(arc) proportional to edge weight.
- ``VERTEX_WEIGHTED``  — P(arc) proportional to the *target vertex* weight.
- ``TEMPORAL``         — arcs must be strictly increasing in timestamp;
  optionally two consecutive arcs must be within ``time_window`` of each
  other.
- ``NODE2VEC``         — second-order p/q bias (Grover & Leskovec 2016).

Directed graphs simply follow out-arcs; a walk that reaches a vertex with
no (eligible) out-arc terminates, exactly as the paper specifies, and its
remaining positions are padded with ``-1``.

**Determinism contract.** The walk corpus is a pure function of
``(graph, config, seed)``: the same bytes on either graph backend — an
in-memory :class:`~repro.graph.core.Graph` or a memory-mapped
:class:`~repro.graph.store.GraphStore` — and at any worker, shard or
checkpoint-chunk count. Every draw is *counter-based*: step ``s`` of walk
``w`` consumes ``u = mix64(key, w, s)``, a SplitMix64-style hash under a
key derived from ``config.seed``, so no draw depends on which process
walks which rows, or in what order. (The weighted modes search per-row
cumulative weights; a store sums them in its own row order, so a draw
landing within one rounding unit of an arc boundary could in principle
pick differently across backends.) ``tests/walks/test_shard_golden.py``
pins the bytes for every backend, worker, shard and chunk count.

**One stepper over one view.** Both backends present the same CSR view:
``indptr``/``indices``, per-row inclusive cumulative weights for the
weighted modes (a binary search per draw, no alias tables), time-sorted
rows for temporal walks and target-sorted rows for node2vec. A store
renumbers vertices; its view carries the permutation, and tokens are
written in original ids. An in-memory graph is the identity case. Walks
advance in lock step, one vectorized draw per step for a block of walks.
Parallel runs split walk *rows*: each task walks its rows over the whole
graph (exported to shared memory, or the store's mmap opened by path)
and writes them into one shared matrix.

node2vec takes up to :data:`_N2V_LANES` counter-addressed rejection
candidates per step, then an exact draw over the neighbor row: a bounded
number of draws per step, and exactly the second-order law. A store
refuses node2vec, because its rows are not sorted by target, which the
adjacency test needs.
"""

from __future__ import annotations

import contextlib
import enum
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.obs.recorder import current_recorder
from repro.walks.corpus import WALK_DTYPE, WalkCorpus

__all__ = ["WalkMode", "RandomWalkConfig", "generate_walks", "hash_uniform"]

PAD = -1

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LANE_SALT = 0xD1B54A32D192ED03
_STEP_MULT = np.uint64(0xBF58476D1CE4E5B9)
#: Walks the stepper advances together (see :func:`_advance`).
_CHUNK = 1 << 15
#: node2vec rejection candidates per step before the exact row draw.
_N2V_LANES = 8
#: Why node2vec cannot walk a graph store; the CLI's refusal says the same.
NODE2VEC_ON_STORE = (
    "node2vec walks are not supported on a graph store: its rows are not "
    "sorted by target, which the second-order adjacency test needs"
)


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


# ---------------------------------------------------------------------------
# Counter-based draws


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


def _step_uniform(prefix: np.ndarray, steps) -> np.ndarray:
    """53-bit uniforms in [0, 1) for (walk prefix, step) pairs; ``steps``
    is an array or one step for every walk."""
    if np.ndim(steps):
        z = _mix64(prefix + np.asarray(steps, dtype=np.uint64) * _STEP_MULT)
    else:
        z = _mix64(prefix + np.uint64(int(steps) * int(_STEP_MULT) & _MASK64))
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 1.0 / (1 << 53)
    return u


def hash_uniform(
    key: int, walk_ids: np.ndarray, steps: np.ndarray, lane: int = 0
) -> np.ndarray:
    """Counter-based uniforms in [0, 1): one per (walk, step) pair.

    ``u[i] = f(key, walk_ids[i], steps[i], lane)`` with no sequential
    state — the property the determinism contract rests on. 53-bit
    mantissa draws, matching ``Generator.random`` precision.
    """
    return _step_uniform(_walk_prefix(key, walk_ids, lane), steps)


# ---------------------------------------------------------------------------
# Stepper


@dataclass(frozen=True)
class _Plan:
    """The resolved walk configuration a row task runs."""

    mode: WalkMode
    walk_length: int
    time_window: float | None
    p: float
    q: float
    key: int


class _Walks(NamedTuple):
    """Walks in flight, one entry per walk; all of them are at one step."""

    rows: np.ndarray  # walk id = output row
    cur: np.ndarray  # current vertex (the view's id space)
    prefix: np.ndarray  # _walk_prefix of the walk id
    last: np.ndarray | None  # temporal: time of the last arc; node2vec: previous vertex

    def take(self, index) -> "_Walks":
        return _Walks(*(None if a is None else a[index] for a in self))


def _draw(arrays: dict, plan: _Plan, walks: _Walks, step: int):
    """Step ``step``'s next vertices (``PAD`` where no arc is eligible)
    and the walks' new ``last`` state."""
    indices = arrays["indices"]
    row_start = arrays["indptr"][walks.cur]
    row_stop = arrays["row_stop"][walks.cur]
    u = _step_uniform(walks.prefix, step)
    last = None
    if plan.mode is WalkMode.TEMPORAL:
        times = arrays["times"]
        elig_lo = _segment_searchsorted(
            times, row_start, row_stop, walks.last, side="right"
        )
        if plan.time_window is not None:
            # A fresh walk (t = -inf) has no previous arc, so no window cap.
            cap = np.where(
                np.isinf(walks.last), np.inf, walks.last + plan.time_window
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
        last = np.where(ok, np.take(times, pick, mode="clip"), walks.last)
    else:
        deg = row_stop - row_start
        ok = deg > 0
        pick = (u * deg).astype(np.int64)
        # A dead end picks row_start - 1: clipped by the take below and
        # overwritten with PAD.
        np.minimum(pick, deg - 1, out=pick)
        pick += row_start
        if plan.mode in (WalkMode.WEIGHTED, WalkMode.VERTEX_WEIGHTED):
            cum = arrays["cum"]
            total = cum[np.maximum(row_stop - 1, 0)] * ok
            positive = total > 0
            if np.any(positive):
                wpick = _segment_searchsorted(
                    cum, row_start, row_stop, u * total, side="left"
                )
                np.minimum(wpick, np.maximum(row_stop - 1, 0), out=wpick)
                # All-zero rows keep the uniform pick (they degenerate
                # to uniform, like build_arc_alias).
                pick = np.where(positive, wpick, pick)
        elif plan.mode is WalkMode.NODE2VEC:
            _node2vec_picks(arrays, plan, walks, step, pick, row_start, deg, ok)
            last = walks.cur
    nxt = np.take(indices, pick, mode="clip")
    if not ok.all():
        nxt[~ok] = PAD
    return nxt, last


def _node2vec_picks(arrays, plan, walks, step, pick, row_start, deg, ok) -> None:
    """Turn ``pick`` (uniform arcs) into second-order picks, in place.

    From ``cur`` with previous vertex ``prev``, neighbor ``x`` has weight
    ``1/p`` if ``x == prev``, 1 if ``x`` is adjacent to ``prev`` and
    ``1/q`` otherwise. Candidate ``k`` (lane ``2k``; candidate 0 is the
    step's uniform pick) is accepted when lane ``2k + 1`` falls under
    ``weight / max weight``. A walk with no accepted candidate after
    :data:`_N2V_LANES` draws its arc exactly from the weighted row with
    lane ``2 * _N2V_LANES``. Both stages sample the same law, so the
    mixture is exact. First hops (no ``prev``) stay uniform.
    """
    w_return, w_explore = 1.0 / plan.p, 1.0 / plan.q
    w_max = max(w_return, 1.0, w_explore)
    pending = np.flatnonzero(ok & (walks.last >= 0))
    if pending.size == 0 or w_return == w_explore == 1.0:
        return
    indices = arrays["indices"]
    walk_ids = walks.rows[pending]
    prev = walks.last[pending]
    start = row_start[pending]
    degree = deg[pending]

    def lane(k: int, sel: np.ndarray) -> np.ndarray:
        return _step_uniform(_walk_prefix(plan.key, walk_ids[sel], k), step)

    def weight(prev_v: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.where(
            x == prev_v,
            w_return,
            np.where(_is_adjacent(arrays, prev_v, x), 1.0, w_explore),
        )

    todo = np.arange(pending.size)
    cand = pick[pending]
    for k in range(_N2V_LANES):
        if k:
            offs = (lane(2 * k, todo) * degree[todo]).astype(np.int64)
            np.minimum(offs, degree[todo] - 1, out=offs)
            cand = start[todo] + offs
        accept = lane(2 * k + 1, todo) * w_max < weight(prev[todo], indices[cand])
        pick[pending[todo[accept]]] = cand[accept]
        todo = todo[~accept]
        if todo.size == 0:
            return
    # Exact draw: expand the remaining walks' rows into one flat segment
    # list and invert each row's cumulative weight.
    d = degree[todo]
    seg = np.repeat(np.arange(todo.size), d)
    first = np.cumsum(d) - d
    arcs = np.arange(int(d.sum()), dtype=np.int64) - first[seg] + start[todo][seg]
    w = weight(prev[todo][seg], indices[arcs])
    cum = np.cumsum(w)
    base = cum[first] - w[first]
    target = base + lane(2 * _N2V_LANES, todo) * (cum[first + d - 1] - base)
    at = np.searchsorted(cum, target, side="right")
    pick[pending[todo]] = arcs[np.clip(at, first, first + d - 1)]


def _is_adjacent(arrays: dict, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per element: is ``x`` an out-neighbor of ``u``? (target-sorted rows)"""
    indices = arrays["indices"]
    stops = arrays["row_stop"][u]
    pos = _segment_searchsorted(
        indices, arrays["indptr"][u], stops, x, side="left"
    )
    found = pos < stops
    found[found] = indices[pos[found]] == x[found]
    return found


def _advance(arrays: dict, plan: _Plan, walks: _Walks, out: np.ndarray) -> None:
    """Advance ``walks`` from step 1 until each finishes or dies.

    Writes every token, in original ids, into its walk's row of ``out``,
    and pads the rest of a row with ``PAD`` when its walk dies.
    Walks advance in lock step, :data:`_CHUNK` at a time: the step
    temporaries then stay small enough to be recycled by the allocator
    instead of being page-faulted in afresh on every step.
    """
    from repro.resilience.lifecycle import RunInterrupted, current_cancel_scope
    from repro.resilience.supervisor import current_heartbeat

    heartbeat = current_heartbeat()
    scope = current_cancel_scope()
    perm_ext = arrays.get("perm_ext")
    for first in range(0, walks.rows.size, _CHUNK):
        batch = walks.take(slice(first, first + _CHUNK))
        for step in range(1, plan.walk_length):
            heartbeat.beat()  # liveness signal for the supervisor watchdog
            scope.check()  # cooperative cancel: one poll per vectorized hop
            if heartbeat.cancelled():
                # A pooled task's scope is the copy taken at fork, which a
                # signal to the parent never reaches: the pool's cancel
                # word does. In-process, the check raises the run's reason.
                scope.check()
                raise RunInterrupted("cancelled", detail="the pool cancelled the task")
            nxt, last = _draw(arrays, plan, batch, step)
            # perm_ext[PAD] == PAD: a walk that dies writes PAD.
            tokens = nxt if perm_ext is None else perm_ext[nxt]
            rows = batch.rows
            if rows[-1] - rows[0] == rows.size - 1:  # ascending, no gaps
                out[rows[0] : rows[-1] + 1, step] = tokens
            else:
                out[rows, step] = tokens
            batch = _Walks(rows, nxt, batch.prefix, last)
            alive = nxt != PAD
            if not alive.all():
                out[rows[~alive], step + 1 :] = PAD
                batch = batch.take(np.flatnonzero(alive))
                if not batch.rows.size:
                    break


# ---------------------------------------------------------------------------
# Graph views and the row task


@dataclass(frozen=True)
class _StoreView:
    """A store's walk arrays by path: every process maps the store itself."""

    path: str
    ident: str | None  # the manifest's integrity digest
    names: tuple


@dataclass(frozen=True)
class _SharedView:
    """An in-memory graph's walk arrays, exported to shared memory."""

    specs: dict  # name -> SharedArraySpec


_OPEN_STORE: tuple = (None, None)


def _store_arrays(view: _StoreView) -> dict:
    """A store's walk arrays as plain ndarray views over read-only mmaps.

    Cached per process for the last store opened, keyed by path *and*
    the manifest's integrity digest: pool workers outlive a map, and a
    store removed and rebuilt at the same path must not be walked
    through the old graph's mappings.
    """
    global _OPEN_STORE
    if _OPEN_STORE[0] != view:
        arrays = {
            name: np.load(
                Path(view.path) / f"{name}.npy", mmap_mode="r", allow_pickle=False
            ).view(np.ndarray)
            for name in view.names
        }
        for name in ("cum_weights", "cum_vertex_weights"):
            if name in arrays:
                arrays["cum"] = arrays.pop(name)
        arrays["row_stop"] = arrays["indptr"][1:]
        arrays["perm_ext"] = np.append(arrays.pop("perm"), PAD)
        _OPEN_STORE = (view, arrays)
    return _OPEN_STORE[1]


def _open_view(view) -> dict:
    """The stepper's arrays for a view, in this process."""
    if isinstance(view, _StoreView):
        return _store_arrays(view)
    if isinstance(view, _SharedView):
        from repro.parallel.shm import attach_cached

        view = {name: attach_cached(spec).array for name, spec in view.specs.items()}
    return {**view, "row_stop": view["indptr"][1:]}


def _graph_arrays(g, mode: WalkMode) -> dict:
    """An in-memory graph's walk arrays, laid out as a store lays them
    out: rows time-sorted on a temporal graph (target-sorted for
    node2vec), cumulative weights per row."""
    indices, weights, times = g.indices, g.edge_weights, g.edge_times
    by = indices if mode is WalkMode.NODE2VEC else times
    if by is not None:
        rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
        order = np.lexsort((by, rows))
        indices = np.ascontiguousarray(indices[order])
        if weights is not None:
            weights = weights[order]
        if times is not None:
            times = np.ascontiguousarray(times[order])
    arrays = {"indptr": g.indptr, "indices": indices}
    if mode in (WalkMode.WEIGHTED, WalkMode.VERTEX_WEIGHTED):
        from repro.graph.store import _row_cumsum

        if mode is WalkMode.VERTEX_WEIGHTED:
            weights = g.vertex_weights[indices]
        arrays["cum"] = _row_cumsum(g.indptr, np.asarray(weights, dtype=np.float64))
    elif mode is WalkMode.TEMPORAL:
        arrays["times"] = times
    return arrays


def _store_view(store, mode: WalkMode) -> _StoreView:
    names = ["indptr", "indices", "perm"]
    if mode is WalkMode.WEIGHTED:
        names.append("cum_weights")
    elif mode is WalkMode.VERTEX_WEIGHTED:
        names.append("cum_vertex_weights")
    elif mode is WalkMode.TEMPORAL:
        names.append("times")
    return _StoreView(
        str(store.path),
        store.manifest.get("integrity", {}).get("digest"),
        tuple(names),
    )


@contextlib.contextmanager
def _task_view(view, pooled: bool):
    """The view row tasks receive: in-memory arrays go to shared memory
    for pooled runs; a store view travels as its path."""
    if not pooled or isinstance(view, _StoreView):
        yield view
        return
    from repro.parallel.shm import release_cached, shared_arrays

    with shared_arrays() as scope:
        specs = {name: scope.from_array(arr).spec for name, arr in view.items()}
        try:
            yield _SharedView(specs)
        finally:
            # An in-process fallback leaves attachments in this process's
            # cache; drop them with the segments.
            for spec in specs.values():
                release_cached(spec.name)


@dataclass(frozen=True)
class _RowTask:
    """Walk rows ``[lo, hi)`` over the whole graph; picklable in O(rows)."""

    view: object  # arrays dict in-process, or a _SharedView / _StoreView
    plan: _Plan
    lo: int
    hi: int
    starts: np.ndarray  # start vertex of each row, in the view's ids
    out: object  # the (walks, length) matrix, or its SharedArraySpec


def _walk_rows(task: _RowTask) -> tuple[int, int, float]:
    """Walk one task's rows into the output; returns (lo, hi, seconds).

    Idempotent: draws are counter-based and a task writes exactly its
    own rows, so a killed-and-respawned task rewrites identical bytes.
    """
    started = time.perf_counter()
    arrays = _open_view(task.view)
    shared = None
    out = task.out
    if not isinstance(out, np.ndarray):
        from repro.parallel.shm import SharedArray

        # The output changes every run and can be large: attach/close per
        # task instead of pinning it in the process-level cache.
        shared = SharedArray.attach(out)
        out = shared.array
    try:
        perm_ext = arrays.get("perm_ext")
        out[task.lo : task.hi, 0] = (
            task.starts if perm_ext is None else perm_ext[task.starts]
        )
        if arrays["indices"].size == 0:
            # Without an arc to take, every walk ends at its start vertex.
            out[task.lo : task.hi, 1:] = PAD
        elif task.plan.walk_length > 1 and task.hi > task.lo:
            walk_ids = np.arange(task.lo, task.hi, dtype=np.int64)
            last = None
            if task.plan.mode is WalkMode.TEMPORAL:
                last = np.full(walk_ids.size, -np.inf)
            elif task.plan.mode is WalkMode.NODE2VEC:
                last = np.full(walk_ids.size, PAD, dtype=np.int64)
            walks = _Walks(
                rows=walk_ids,
                cur=task.starts,
                prefix=_walk_prefix(task.plan.key, walk_ids),
                last=last,
            )
            _advance(arrays, task.plan, walks, out)
    finally:
        if shared is not None:
            shared.close()
    return task.lo, task.hi, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Public entry


def generate_walks(
    g,
    config: RandomWalkConfig | None = None,
    *,
    context=None,
    workers: "int | None" = 1,
    checkpoint_chunks: int | None = None,
) -> WalkCorpus:
    """Generate ``t`` walks from every vertex (or from ``start_vertices``).

    ``g`` is an in-memory :class:`~repro.graph.core.Graph` or a
    :class:`~repro.graph.store.GraphStore`. Returns a :class:`WalkCorpus`
    whose int32 ``walks`` matrix has one row per walk, in original vertex
    ids, padded with ``-1`` after termination; row ``i`` starts at
    ``starts[i % len(starts)]``. A graph of more than 2**31 - 1 vertices
    is refused with ``ValueError``. The corpus obeys the determinism
    contract in this module's docstring.

    Runtime concerns travel in ``context``, a
    :class:`repro.pipeline.ExecutionContext` (``workers=`` is shorthand
    for ``ExecutionContext(workers=...)``; a non-default value cannot be
    combined with ``context=``):

    * ``context.workers > 1`` splits the walk rows across the worker
      pool. The rows land in one shared-memory block, copied out into
      the returned corpus. ``None``/< 1 means auto via
      :func:`repro.parallel.pool.resolve_workers`.
    * ``context.checkpoint_dir`` makes the run durable: the rows are
      split into ``checkpoint_chunks`` chunks (default
      ``max(workers, 1)``), and each completed chunk is written
      atomically with the rows it holds. With ``context.resume``,
      chunks already on disk with a matching configuration fingerprint
      are reused, whatever chunk count wrote them. A fingerprint
      mismatch raises :class:`repro.pipeline.FingerprintMismatch` (a
      ``ValueError``) rather than silently mixing corpora.
    * ``context.supervisor`` sets the liveness policy pooled row tasks
      run under (hung-worker detection, kill/respawn with task
      reassignment, a degrade ladder to in-process; default
      ``SupervisorConfig()``).
    """
    from repro.pipeline.context import ExecutionContext

    if context is not None and workers != 1:
        raise TypeError(
            "pass workers either via context= or as the workers= "
            "shorthand, not both"
        )
    ctx = context or ExecutionContext(workers=workers)
    config = config or RandomWalkConfig()
    mode = WalkMode(config.mode)
    store = getattr(g, "mmap_backed", False) and hasattr(g, "shard")
    _validate_mode(g, mode, store)
    n = int(g.n)
    if n > np.iinfo(WALK_DTYPE).max:
        raise ValueError(
            f"graph has {n} vertices; int32 walk tokens hold at most 2**31 - 1"
        )
    starts = _resolve_starts(config, n)
    workers = ctx.resolve_workers()
    rec = current_recorder()
    fields = {"shards": int(g.num_shards)} if store else {}
    with ctx.lifecycle(), rec.span(
        "walks.generate",
        n=n,
        mode=str(mode.value),
        walks_per_vertex=config.walks_per_vertex,
        walk_length=config.walk_length,
        workers=workers,
        **fields,
    ) as span:
        with rec.time("walks.generate_seconds") as timer:
            if store:
                view = _store_view(g, mode)
                inverse = np.empty(n, dtype=np.int64)
                inverse[g.permutation()] = np.arange(n, dtype=np.int64)
                starts = inverse[starts]
            else:
                view = _graph_arrays(g, mode)
            plan = _Plan(
                mode=mode,
                walk_length=int(config.walk_length),
                time_window=config.time_window,
                p=config.p,
                q=config.q,
                key=derive_key(config.seed),
            )
            corpus = _walk(
                g,
                config,
                plan,
                view,
                np.tile(starts, config.walks_per_vertex),
                ctx,
                workers,
                chunks=checkpoint_chunks or workers,
            )
        if rec.enabled:
            walks_per_sec = corpus.num_walks / max(timer.seconds, 1e-9)
            rec.inc("walks.total", corpus.num_walks)
            rec.inc("walks.tokens", corpus.num_tokens)
            rec.set("walks.walks_per_sec", walks_per_sec)
            if store:
                rec.inc("shard.walks", corpus.num_walks)
                rec.set("shard.shards", float(g.num_shards))
            span.annotate(
                walks=corpus.num_walks,
                tokens=corpus.num_tokens,
                walks_per_sec=round(walks_per_sec, 1),
            )
        return corpus


def _walk(g, config, plan, view, starts, ctx, workers, *, chunks) -> WalkCorpus:
    """Walk every row, in one process or across the pool, checkpointed
    or not; every path runs the same row task."""
    from repro.parallel.pool import chunk_bounds, parallel_map
    from repro.parallel.shm import SHM_AVAILABLE, SharedArray

    num_walks = starts.shape[0]
    pooled = workers > 1 and num_walks > 1 and SHM_AVAILABLE
    shape = (num_walks, plan.walk_length)
    shared = SharedArray.create(shape, WALK_DTYPE) if pooled else None
    walks = shared.array if pooled else np.empty(shape, dtype=WALK_DTYPE)
    rec = current_recorder()
    try:
        with _task_view(view, pooled) as task_view:

            def run(bounds: list[tuple[int, int]]) -> None:
                tasks = [
                    _RowTask(
                        task_view,
                        plan,
                        lo,
                        hi,
                        starts[lo:hi],
                        shared.spec if pooled else walks,
                    )
                    for lo, hi in bounds
                ]
                done = parallel_map(
                    ctx.wrap_task(_walk_rows),
                    tasks,
                    workers=workers if pooled else 1,
                    supervisor=ctx.supervisor,
                )
                if rec.enabled:
                    for lo, hi, seconds in done:
                        rec.observe("walks.chunk_seconds", seconds)
                        rec.event(
                            "walks.chunk",
                            level="debug",
                            rows=hi - lo,
                            seconds=round(seconds, 6),
                        )

            bounds = chunk_bounds(num_walks, max(chunks, 1))
            if ctx.checkpoint_dir is None:
                run(bounds if pooled else [(0, num_walks)])
            else:
                _run_checkpointed(g, config, ctx, workers, bounds, walks, run)
        # Every row was written by the stepper (or read back from its own
        # checkpoint): in range and suffix-padded, so nothing is re-checked.
        return WalkCorpus._trusted(
            shared.copy() if pooled else walks, num_vertices=g.n
        )
    finally:
        if shared is not None:
            shared.destroy()


def _walk_fingerprint(g, config: RandomWalkConfig) -> dict:
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
        "start_vertices": None if starts is None else [int(v) for v in starts],
    }


def _run_checkpointed(g, config, ctx, workers, bounds, walks, run) -> None:
    """Walk the chunks in ``bounds`` that no checkpoint holds yet, saving
    each chunk (with its rows) once its wave completes."""
    from repro.resilience.lifecycle import current_cancel_scope

    store = ctx.fingerprinted(
        _walk_fingerprint(g, config),
        what="walk checkpoint",
        described="walk configuration",
    )
    rec = current_recorder()
    done = np.zeros(walks.shape[0], dtype=bool)
    if ctx.resume:
        # Every chunk records its rows, so chunks written at any chunk
        # count fill the matrix.
        resumed = 0
        for name in store.manager.names():
            ckpt = store.load(name) if name.startswith("walks-") else None
            if ckpt is None:
                continue
            lo, hi = ckpt.meta["rows"]
            walks[lo:hi] = ckpt.arrays["walks"]
            done[lo:hi] = True
            resumed += 1
        if resumed:
            rec.inc("walks.chunks_resumed", resumed)
            rec.event("walks.resume", chunks=resumed, of=len(bounds))

    scope = current_cancel_scope()
    missing = [
        (i, lo, hi) for i, (lo, hi) in enumerate(bounds) if not done[lo:hi].all()
    ]
    # Compute in waves of `workers` chunks, checkpointing after each
    # wave, so a kill mid-job loses at most one wave of work.
    first, wave_index = 0, 0
    while first < len(missing):
        # Completed waves are already durable; raising here (cancel or
        # deadline) loses at most the wave in flight.
        scope.check()
        wave = missing[first : first + max(workers, 1)]
        first += len(wave)
        wave_started = time.perf_counter()
        run([(lo, hi) for _, lo, hi in wave])
        for i, lo, hi in wave:
            meta = {"chunk": i, "rows": [lo, hi]}
            store.save(f"walks-{i:04d}", {"walks": walks[lo:hi]}, meta)
        if rec.enabled:
            wave_seconds = time.perf_counter() - wave_started
            rec.observe("walks.wave_seconds", wave_seconds)
            rec.inc("walks.chunks_computed", len(wave))
            rec.event(
                "walks.wave",
                wave=wave_index,
                chunks=len(wave),
                seconds=round(wave_seconds, 6),
            )
        wave_index += 1


def _resolve_starts(config: RandomWalkConfig, n: int) -> np.ndarray:
    """Start vertices in original ids (the public API's space)."""
    if config.start_vertices is not None:
        starts = np.asarray(config.start_vertices, dtype=np.int64)
        if starts.size and (starts.min() < 0 or starts.max() >= n):
            raise ValueError("start vertex out of range")
        return starts
    return np.arange(n, dtype=np.int64)


def _validate_mode(g, mode: WalkMode, store: bool) -> None:
    if mode is WalkMode.NODE2VEC and store:
        raise ValueError(
            f"{NODE2VEC_ON_STORE} — walk the in-memory graph "
            "(GraphStore.to_graph())"
        )
    if mode is WalkMode.WEIGHTED and g.edge_weights is None:
        raise ValueError("WEIGHTED walk requires edge weights")
    if mode is WalkMode.VERTEX_WEIGHTED and g.vertex_weights is None:
        raise ValueError("VERTEX_WEIGHTED walk requires vertex weights")
    if mode is WalkMode.TEMPORAL and g.edge_times is None:
        raise ValueError("TEMPORAL walk requires edge timestamps")


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
