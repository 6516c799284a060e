"""Hogwild-style shared-memory parallel CBOW/SkipGram training.

The paper's pitch (Fig 7, Table 1) is that V2V is *fast*; DeepWalk-family
systems get there with lock-free asynchronous SGD (Hogwild, Niu et al.
2011): N workers update one shared weight matrix without locks, relying
on sparse, mostly-disjoint touches per minibatch. This module is that
training mode for the reproduction:

- ``w_in``/``w_out`` live in :mod:`repro.parallel.shm` segments; workers
  attach and run the trainer's own batch step (the same kernels)
  directly against the shared views — updates race benignly, exactly as
  Hogwild prescribes.
- The window-padded walk matrix and the example positions into it are
  moved into shared memory once; the positions are sharded contiguously
  across workers, each of which gathers its windows one block of
  batches at a time. Nothing heavyweight is ever pickled through the
  pool; a per-epoch task payload is segment names, scalars and the
  config, plus the vertex counts (O(V) int64) from which a worker
  rebuilds its objective once per run.
- Per-worker RNG streams are addressed by ``(epoch, worker)`` via
  :func:`repro.parallel.seeding.worker_seed_sequence`, so checkpoint
  resume replays the exact seeds of the epochs it re-runs.
- This is only the pooled epoch body (:func:`hogwild_epochs`) and its
  worker task. Setup, the epoch loop and the batch step are the ones
  :func:`repro.core.trainer.train_embeddings` runs at ``workers=1``,
  which stays in-process and never allocates shared memory.

Determinism caveat: with ``workers > 1`` the final weights depend on OS
scheduling (update interleaving), so multi-worker runs are *not* bitwise
reproducible — only statistically so. See docs/PERFORMANCE.md.

Fault tolerance: epochs run through
:func:`repro.parallel.pool.parallel_map` on the supervised worker pool,
so a worker killed or hung mid-epoch is respawned and its shard
reassigned (the shard is partially re-applied — benign for Hogwild, same
class of race as normal operation); the pool's degrade ladder ends at
in-process execution. Shared segments are owned by a
:func:`repro.parallel.shm.shared_arrays` scope and are unlinked on every
exit path, including exceptions and injected worker death.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

from repro.obs.recorder import current_recorder
from repro.obs.slab import HOGWILD_SLOTS, MetricsSlab, MetricsSlabSpec
from repro.parallel.pool import chunk_bounds, parallel_map
from repro.parallel.seeding import worker_seed_sequence
from repro.resilience.lifecycle import current_cancel_scope
from repro.parallel.shm import SHM_AVAILABLE, SharedArraySpec, shared_arrays

__all__ = ["hogwild_supported", "hogwild_epoch_task"]


def hogwild_supported() -> bool:
    """Whether this platform can run the shared-memory trainer."""
    return SHM_AVAILABLE


@dataclass(frozen=True)
class _EpochTask:
    """One worker's share of one epoch (picklable, tiny).

    Shared state travels as :class:`SharedArraySpec` handles — the
    ``segments`` are ``(w_in, w_out, walks, positions)``: the weights,
    the window-padded walk matrix and the example positions; the only
    array-valued field is ``vocab_counts`` (O(V) int64), from which the
    worker rebuilds its objective (noise distribution / Huffman coding).
    """

    segments: tuple[SharedArraySpec, ...]
    lo: int
    hi: int
    epoch: int
    worker: int
    entropy: int
    batch_offset: int
    total_batches: int
    config: "object"  # TrainConfig (imported lazily to avoid a cycle)
    vocab_counts: np.ndarray
    # Shared-memory metrics row set; workers report live progress through
    # it because the parent's Recorder is inert across fork.
    slab: MetricsSlabSpec


# Per-process cache of one run's attachments + rebuilt objective, keyed
# by the four segment names. Persistent-pool workers serve *every* epoch
# of a run (repro.parallel.persistent), so re-attaching the segments and
# rebuilding the objective — noise alias table, Huffman coding, a
# throwaway init matrix — once per epoch per worker was pure overhead.
# A new run allocates fresh segment names, which misses the cache and
# evicts the stale entry; the underlying attachments are owned by
# :func:`repro.parallel.shm.attach_cached` and are closed by its FIFO
# eviction, never here.
_WORKER_STATE: dict[tuple, tuple] = {}


def _task_state(task: _EpochTask) -> tuple:
    """(objective, walks, positions) for this task's run, cached."""
    from repro.core.trainer import _build_objective
    from repro.core.vocab import VertexVocab
    from repro.parallel.shm import attach_cached

    key = tuple(spec.name for spec in task.segments)
    cached = _WORKER_STATE.get(key)
    if cached is not None:
        return cached
    w_in, w_out, walks, positions = (
        attach_cached(spec).array for spec in task.segments
    )
    # Rebuild the objective shell, then point it at the shared views.
    # The throwaway init matrices are freed immediately.
    vocab = VertexVocab(task.vocab_counts)
    objective = _build_objective(task.config, vocab, np.random.default_rng(0))
    objective.w_in = w_in
    objective.w_out = w_out
    state = (objective, walks, positions)
    _WORKER_STATE.clear()  # one run at a time; drop stale handles
    _WORKER_STATE[key] = state
    return state


def hogwild_epoch_task(task: _EpochTask) -> tuple[float, int]:
    """Run one worker's epoch shard against the shared weights.

    Returns ``(loss_sum, batches_run)``. Module-level and picklable so it
    crosses a process pool; also runnable in-process (the pool's last
    degrade rung inside :func:`parallel_map`, and the chaos tests, rely
    on that). Steps through :func:`repro.core.trainer.step_batches`, the
    same batch step as the in-process trainer; once per batch it beats
    the worker's heartbeat for the pool's watchdog and polls the
    heartbeat's cancel word, handing back a partial shard once it is
    set. Attachments and the rebuilt objective are cached per process
    (see :data:`_WORKER_STATE`), so on the persistent pool only the
    first epoch of a run pays the setup cost.
    """
    from repro.core.trainer import step_batches
    from repro.resilience.supervisor import current_heartbeat

    heartbeat = current_heartbeat()
    objective, walks, positions = _task_state(task)
    slab = MetricsSlab.attach(task.slab)
    try:
        rng = np.random.default_rng(
            worker_seed_sequence(task.entropy, task.epoch, task.worker)
        )
        run = positions[task.lo : task.hi]
        if task.config.shuffle:
            run = run.copy()
            rng.shuffle(run)
        slab.put(task.worker, "epoch", task.epoch)

        def on_batch(loss: float, examples: int) -> None:
            heartbeat.beat()  # liveness signal for the supervisor watchdog
            slab.add(task.worker, "batches", 1)
            slab.add(task.worker, "examples", examples)
            slab.add(task.worker, "loss_sum", loss)
            # Heartbeat for external monitors (repro top): one store,
            # same benign single-writer regime as the other slots.
            slab.put(task.worker, "updated", time.time())

        return step_batches(
            objective,
            walks,
            run,
            task.config,
            rng,
            task.batch_offset,
            task.total_batches,
            cancelled=heartbeat.cancelled,
            on_batch=on_batch,
        )
    finally:
        slab.close()


@contextlib.contextmanager
def hogwild_epochs(objective, walks, positions, vocab, config, ctx, state):
    """The ``workers > 1`` epoch body: fan shards out, barrier per epoch.

    Owns the shared segments (weights, the padded walk matrix, example
    positions, metrics slab) and the live-status updates; yields
    ``(run_epoch, total_batches)`` to the trainer's epoch loop. A partial
    epoch (workers bailed out on the pool's cancel word) is *discarded*:
    the shared weights then hold an incomplete update pass, which is not
    a valid resume point, so ``run_epoch`` raises before the epoch is
    recorded or checkpointed — resume replays it from the last boundary.
    """
    rec = current_recorder()
    lifecycle = current_cancel_scope()
    with shared_arrays() as scope, contextlib.ExitStack() as cleanup:
        shared = [
            scope.from_array(objective.w_in),
            scope.from_array(objective.w_out),
            scope.from_array(walks),
            scope.from_array(positions),
        ]
        # The parent-side objective now *views* the segments, so
        # checkpoint snapshots read live state.
        objective.w_in = shared[0].array
        objective.w_out = shared[1].array
        segments = tuple(sh.spec for sh in shared)
        # Per-worker progress rows live in the same shared scope as the
        # weights, so crash cleanup (unlink) is covered by the scope.
        sh_slab = scope.from_array(
            np.zeros((config.workers, len(HOGWILD_SLOTS)), dtype=np.float64)
        )
        slab = MetricsSlab.over(sh_slab, HOGWILD_SLOTS)

        shards = chunk_bounds(positions.shape[0], config.workers)
        shard_batches = [
            int(np.ceil((hi - lo) / config.batch_size)) for lo, hi in shards
        ]
        batches_per_epoch = int(sum(shard_batches))
        total_batches = batches_per_epoch * config.epochs
        # One picklable entropy for the whole run; workers re-derive their
        # streams from (entropy, epoch, worker) — stable across resume.
        entropy = np.random.SeedSequence(config.seed).entropy
        task = ctx.wrap_task(hogwild_epoch_task)

        if rec.live is not None:
            # Publish the training fan-out plus the slab's picklable identity
            # so `repro top` in another process can attach the live rows.
            from repro.obs.live import slab_spec_to_json

            rec.live.update(
                slab=slab_spec_to_json(slab.spec),
                train={
                    "workers": config.workers,
                    "epochs": config.epochs,
                    "epoch": state.epoch,
                    "total_batches": total_batches,
                    "batches_done": state.batch_index,
                    "started_unix": round(time.time(), 3),
                },
            )
            # The slab segment unlinks with the shared scope; drop the
            # published handle so the monitor stops trying to attach it.
            cleanup.callback(rec.live.update, slab=None)

        def publish_progress() -> None:
            if rec.live is not None:
                rec.live.update(
                    train={"epoch": state.epoch, "batches_done": state.batch_index}
                )

        cleanup.callback(publish_progress)

        def run_epoch(epoch: int) -> tuple[float, int]:
            publish_progress()
            tasks = [
                _EpochTask(
                    segments=segments,
                    lo=lo,
                    hi=hi,
                    epoch=epoch,
                    worker=w,
                    entropy=entropy,
                    batch_offset=epoch * batches_per_epoch + sum(shard_batches[:w]),
                    total_batches=total_batches,
                    config=config,
                    vocab_counts=vocab.counts,
                    slab=slab.spec,
                )
                for w, (lo, hi) in enumerate(shards)
            ]
            # The pool's slot cap (pressure) shrinks only the *map
            # concurrency*: task structure (shards, per-(epoch, worker)
            # seeds) stays pinned to config.workers, so the trained model
            # is the one the config names — it just arrives on fewer
            # live processes.
            results = parallel_map(
                task, tasks, workers=config.workers, supervisor=ctx.supervisor
            )
            loss_sum = sum(loss for loss, _ in results)
            batches_run = sum(n for _, n in results)
            if lifecycle.cancelled() and batches_run < batches_per_epoch:
                lifecycle.check()
            if rec.enabled:
                for w, row in enumerate(slab.rows()):
                    rec.observe("hogwild.worker_batches", row["batches"])
                    rec.observe("hogwild.worker_examples", row["examples"])
                    rec.event(
                        "hogwild.worker",
                        level="debug",
                        worker=w,
                        epoch=epoch,
                        batches=int(row["batches"]),
                        examples=int(row["examples"]),
                        loss_sum=round(row["loss_sum"], 6),
                    )
                slab.reset()
            return loss_sum, batches_run

        yield run_epoch, total_batches
