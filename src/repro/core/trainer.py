"""Minibatch SGD training loop with linear LR decay and convergence stop.

The paper (Fig 7) observes that V2V training time *decreases* as
community structure strengthens: strong structure makes walk contexts
predictable, the loss plateaus sooner, and training halts early. The
trainer implements that behaviour explicitly: per-epoch mean loss is
tracked, and training stops once the relative improvement stays below
``tol`` for ``patience`` consecutive epochs.

Durability: with ``checkpoint_dir`` set, the full trainer state (weight
matrices, RNG state, loss history, early-stop counters, LR-schedule
position) is snapshotted atomically after each epoch; ``resume=True``
restores the latest snapshot and continues, producing final embeddings
bitwise-identical to an uninterrupted run with the same seed (see
docs/resilience.md).
"""

from __future__ import annotations

import contextlib
import itertools
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from repro.core.cbow import CBOWHierarchicalSoftmax, CBOWNegativeSampling
from repro.core.huffman import build_huffman
from repro.core.negative import NegativeSampler
from repro.core.skipgram import SkipGramNegativeSampling
from repro.core.vocab import VertexVocab
from repro.obs.recorder import current_recorder
from repro.resilience.lifecycle import current_cancel_scope
from repro.walks.corpus import WalkCorpus, gather_windows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.supervisor import SupervisorConfig

__all__ = ["TrainConfig", "EmbeddingResult", "train_embeddings", "resolve_kernel"]

OBJECTIVES = ("cbow", "skipgram")
OUTPUT_LAYERS = ("negative", "hierarchical")
KERNELS = ("auto", "reference", "fused")

TRAINER_CHECKPOINT = "trainer"

#: Batches whose windows are gathered, and whose weight-independent work
#: the objective plans, in one pass (see :func:`step_batches`).
BLOCK_BATCHES = 4


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of the embedding trainer.

    Defaults follow the paper: CBOW, window ``n = 5``; dimension is
    experiment-specific so it has no privileged default beyond a sane 50.
    """

    dim: int = 50
    window: int = 5
    objective: str = "cbow"
    output_layer: str = "negative"
    negatives: int = 5
    epochs: int = 5
    batch_size: int = 512
    lr: float = 0.025
    lr_min: float = 1e-4
    subsample: float = 0.0
    tol: float = 1e-3
    patience: int = 2
    early_stop: bool = True
    streaming: bool = False
    stream_rows: int = 1024
    workers: int = 1
    seed: int | None = None
    # Which batch kernel to run: "fused" is the sparse-matrix float32
    # kernel (CBOW + negative sampling only; see repro.core.fused),
    # "reference" the float64 einsum kernels, and "auto" picks fused for
    # CBOW/negative at any worker count and the reference kernels for
    # skip-gram and hierarchical softmax. Every kernel is bitwise
    # deterministic at workers=1.
    kernel: str = "auto"
    shuffle: bool = field(default=True, compare=False)
    # Liveness policy for the Hogwild worker pool, not model identity:
    # excluded from equality and from the resume fingerprint.
    supervisor: "SupervisorConfig | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.output_layer not in OUTPUT_LAYERS:
            raise ValueError(f"output_layer must be one of {OUTPUT_LAYERS}")
        if self.objective == "skipgram" and self.output_layer == "hierarchical":
            raise ValueError("hierarchical softmax is implemented for CBOW only")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.lr:
            raise ValueError("lr must be positive")
        if self.lr_min < 0 or self.lr_min > self.lr:
            raise ValueError("need 0 <= lr_min <= lr")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.stream_rows < 1:
            raise ValueError("stream_rows must be >= 1")
        if self.workers < 1:
            raise ValueError(
                "workers must be >= 1 (resolve 'auto' before building the "
                "config, e.g. with repro.parallel.pool.resolve_workers)"
            )
        if self.workers > 1 and self.streaming:
            raise ValueError(
                "the streaming trainer is single-process; use workers=1 or "
                "the in-memory (non-streaming) Hogwild path"
            )
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")
        if self.kernel == "fused" and not (
            self.objective == "cbow" and self.output_layer == "negative"
        ):
            raise ValueError(
                "the fused kernel implements CBOW with negative sampling only"
            )


@dataclass(frozen=True)
class EmbeddingResult:
    """Outcome of a training run.

    ``vectors`` is the (V × dim) input-embedding matrix — the V2V vectors.
    """

    vectors: np.ndarray
    loss_history: list[float]
    epochs_run: int
    train_seconds: float
    converged: bool
    config: TrainConfig

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def resolve_kernel(config: TrainConfig) -> str:
    """The batch kernel a config actually runs (``auto`` resolved).

    ``auto`` chooses the fused float32 kernel for CBOW with negative
    sampling, whatever the worker count: it trains faster than the
    float64 reference kernel at equal embedding quality (see
    docs/PERFORMANCE.md). Skip-gram and hierarchical softmax have only
    the reference kernels.
    """
    if config.kernel != "auto":
        return config.kernel
    if config.objective == "cbow" and config.output_layer == "negative":
        return "fused"
    return "reference"


def _build_objective(
    config: TrainConfig,
    vocab: VertexVocab,
    rng: np.random.Generator,
    init_vectors: np.ndarray | None = None,
):
    if config.output_layer == "hierarchical":
        coding = build_huffman(vocab.counts)
        objective = CBOWHierarchicalSoftmax(vocab.size, config.dim, coding, rng=rng)
    elif resolve_kernel(config) == "fused":
        from repro.core.fused import FusedCBOWNegativeSampling

        objective = FusedCBOWNegativeSampling(
            vocab.size,
            config.dim,
            vocab.noise_distribution(),
            negatives=config.negatives,
            rng=rng,
        )
    else:
        sampler = NegativeSampler(vocab.noise_distribution())
        if config.objective == "cbow":
            objective = CBOWNegativeSampling(
                vocab.size, config.dim, sampler, negatives=config.negatives, rng=rng
            )
        else:
            objective = SkipGramNegativeSampling(
                vocab.size, config.dim, sampler, negatives=config.negatives, rng=rng
            )
    if init_vectors is not None:
        init_vectors = np.asarray(init_vectors, dtype=np.float64)
        if init_vectors.shape != (vocab.size, config.dim):
            raise ValueError(
                f"init_vectors must be ({vocab.size}, {config.dim}), "
                f"got {init_vectors.shape}"
            )
        # Cast the warm start to the objective's weight dtype (float32
        # for the fused kernel); np.array always copies.
        objective.w_in = np.array(init_vectors, dtype=objective.w_in.dtype)
    return objective


# ----------------------------------------------------------------------
# Epoch-level state (shared by every epoch body) and its checkpoint
# plumbing.
# ----------------------------------------------------------------------
@dataclass
class _TrainState:
    """Everything that survives an epoch boundary."""

    epoch: int = 0  # completed epochs
    loss_history: list[float] = field(default_factory=list)
    best_loss: float = np.inf
    stall: int = 0
    batch_index: int = 0
    converged: bool = False

    def record_epoch(self, mean_loss: float, config: TrainConfig) -> None:
        self.loss_history.append(mean_loss)
        self.epoch += 1
        if config.early_stop:
            improvement = (self.best_loss - mean_loss) / max(
                abs(self.best_loss), 1e-12
            )
            if np.isfinite(self.best_loss) and improvement < config.tol:
                self.stall += 1
                if self.stall >= config.patience:
                    self.converged = True
            else:
                self.stall = 0
            self.best_loss = min(self.best_loss, mean_loss)


class _TrainerSnapshots:
    """Per-epoch atomic snapshots of a training run.

    A thin policy layer (what to store, how often) over the shared
    fingerprinted-slot machinery in
    :class:`repro.pipeline.checkpointing.FingerprintedCheckpoints` —
    the fingerprint stamping/verification itself lives there now,
    shared with the walk engine.
    """

    def __init__(self, store, every: int) -> None:
        if every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.store = store  # a FingerprintedCheckpoints
        self.every = every

    def restore(
        self, objective, rng: np.random.Generator
    ) -> _TrainState | None:
        """Load the trainer snapshot, if any, into objective/rng/state."""
        ckpt = self.store.load(TRAINER_CHECKPOINT)
        if ckpt is None:
            return None
        # Preserve the objective's weight dtype (float32 for the fused
        # kernel, float64 for the reference kernels).
        objective.w_in = np.ascontiguousarray(
            ckpt.arrays["w_in"], dtype=objective.w_in.dtype
        )
        objective.w_out = np.ascontiguousarray(
            ckpt.arrays["w_out"], dtype=objective.w_out.dtype
        )
        rng.bit_generator.state = ckpt.meta["rng_state"]
        return _TrainState(**{f.name: ckpt.meta[f.name] for f in fields(_TrainState)})

    def save(
        self, objective, rng: np.random.Generator, state: _TrainState, *, final: bool
    ) -> None:
        if not final and state.epoch % self.every != 0:
            return
        self.store.save(
            TRAINER_CHECKPOINT,
            {"w_in": objective.w_in, "w_out": objective.w_out},
            {"rng_state": rng.bit_generator.state, **asdict(state)},
        )


def _train_fingerprint(
    corpus: WalkCorpus, config: TrainConfig, init_vectors: np.ndarray | None
) -> dict:
    """Identity of a training job: config + kernel + corpus shape + warm start."""
    config_dict = asdict(config)
    config_dict.pop("supervisor", None)  # liveness policy, not identity
    return {
        "config": config_dict,
        # The resolved kernel, not just the field: what "auto" runs can
        # change between versions, and a snapshot must never resume on a
        # kernel of another dtype.
        "kernel": resolve_kernel(config),
        "corpus": {
            "num_walks": corpus.num_walks,
            "max_length": corpus.max_length,
            "num_tokens": corpus.num_tokens,
            "num_vertices": corpus.num_vertices,
        },
        "has_init_vectors": init_vectors is not None,
    }


def train_embeddings(
    corpus: WalkCorpus,
    config: TrainConfig | None = None,
    *,
    context=None,
    init_vectors: np.ndarray | None = None,
    checkpoint_every: int = 1,
    epoch_callback: Callable[[int, float], None] | None = None,
) -> EmbeddingResult:
    """Train vertex embeddings on a walk corpus.

    Returns an :class:`EmbeddingResult`; ``vectors`` rows for vertices
    that never appear in the corpus keep their random initialization
    (they carry no information, matching word2vec's treatment of
    out-of-corpus words).

    ``init_vectors`` warm-starts the input embedding matrix — used by
    :meth:`repro.core.model.V2V.refit` to retrain after small graph
    changes without re-learning from scratch.

    Runtime concerns travel in ``context``
    (:class:`repro.pipeline.ExecutionContext`): with
    ``context.checkpoint_dir`` set the trainer snapshots atomically
    every ``checkpoint_every`` epochs, and with ``context.resume`` an
    existing snapshot (written by the same config and corpus — anything
    else raises ``ValueError``) is restored and training continues from
    the epoch after it, replaying the exact RNG stream of an
    uninterrupted run. ``epoch_callback(epoch_index, mean_loss)`` fires
    after each completed epoch (after the snapshot, so a crash inside
    the callback is itself resumable).

    One setup and one epoch loop serve every run; only the epoch body
    differs. ``workers=1`` steps in-process through a batch source (the
    permuted example set, or with ``config.streaming`` one walk chunk at
    a time) and is bitwise reproducible. ``workers > 1`` is Hogwild over
    shared memory (:func:`repro.parallel.hogwild.hogwild_epochs`); where
    shared memory is missing it falls back to ``workers=1`` with a
    ``RuntimeWarning``.
    """
    from repro.pipeline.context import context_from_legacy

    ctx = context_from_legacy(context)
    config = config or TrainConfig()
    # TrainConfig.supervisor predates the context; honor it when the
    # context does not name its own supervision policy.
    ctx = ctx.with_supervisor(config.supervisor)
    if config.workers > 1:
        from repro.parallel.hogwild import hogwild_supported

        if not hogwild_supported():
            warnings.warn(
                "shared memory is unavailable on this platform; training "
                f"serially instead of with {config.workers} workers",
                RuntimeWarning,
                stacklevel=2,
            )
            current_recorder().event(
                "train.serial_fallback", level="warning", workers=config.workers
            )
            config = replace(config, workers=1)
    rec = current_recorder()
    with ctx.lifecycle(), rec.span(
        "train.run",
        objective=config.objective,
        output_layer=config.output_layer,
        dim=config.dim,
        epochs=config.epochs,
        streaming=config.streaming,
        workers=config.workers,
    ) as span:
        # One setup for every epoch body, in one RNG call order: rng,
        # vocab, snapshot slot, examples (and the subsample draw),
        # objective, restore. The order is what keeps fixed-seed runs
        # bitwise stable.
        rng = np.random.default_rng(config.seed)
        vocab = VertexVocab.from_corpus(corpus)
        if vocab.total_tokens == 0:
            raise ValueError("corpus is empty; nothing to train on")

        store = ctx.fingerprinted(
            _train_fingerprint(corpus, config, init_vectors),
            what="trainer checkpoint",
            described="configuration or corpus",
        )
        checkpointer = (
            None if store is None else _TrainerSnapshots(store, checkpoint_every)
        )

        # Examples are positions into the window-padded walk matrix;
        # every batch source gathers their windows one block at a time.
        walks = corpus.padded_walks(config.window)
        if config.streaming:
            # Positions are listed per walk chunk inside each epoch (see
            # _stream_runs); only their count is needed up front.
            num_examples = corpus.num_examples(config.window)
        else:
            positions = corpus.example_positions(config.window)
            if config.subsample > 0:
                keep_p = vocab.keep_probabilities(config.subsample)
                centers = walks.reshape(-1)[positions]
                keep = rng.random(positions.shape[0]) < keep_p[centers]
                if np.any(keep):  # never subsample away the whole corpus
                    positions = positions[keep]
            num_examples = positions.shape[0]
        if num_examples == 0:
            raise ValueError("corpus has no (center, context) examples")

        objective = _build_objective(config, vocab, rng, init_vectors)
        state = _TrainState()
        save = None
        if checkpointer is not None:
            if ctx.resume:
                state = checkpointer.restore(objective, rng) or state
            save = partial(checkpointer.save, objective, rng, state)

        if config.workers > 1:
            from repro.parallel.hogwild import hogwild_epochs

            body = hogwild_epochs(
                objective, walks, positions, vocab, config, ctx, state
            )
        else:
            runs = (
                partial(_stream_runs, corpus, walks, config, vocab, rng)
                if config.streaming
                else partial(_dense_runs, positions, config, rng)
            )
            body = _in_process_epochs(
                objective, walks, runs, config, rng, state, num_examples
            )

        with body as (run_epoch, total_batches):
            elapsed = _run_epochs(
                run_epoch,
                config,
                state,
                total_batches=total_batches,
                num_examples=num_examples,
                save=save,
                epoch_callback=epoch_callback,
            )
            # Copy out while a pooled body's shared segments still exist.
            vectors = objective.vectors.copy()

        if rec.enabled:
            span.annotate(
                epochs_run=len(state.loss_history), converged=state.converged
            )
        return EmbeddingResult(
            vectors=vectors,
            loss_history=state.loss_history,
            epochs_run=len(state.loss_history),
            train_seconds=elapsed,
            converged=state.converged,
            config=config,
        )


def scheduled_lr(config: TrainConfig, index: int, total_batches: int) -> float:
    """The learning rate of batch ``index`` of the run.

    Linear decay from ``lr`` to ``lr_min`` over the scheduled (not
    early-stopped) run of ``total_batches`` batches; an index past the
    end stays at ``lr_min``.
    """
    frac = min(index, total_batches - 1) / max(total_batches - 1, 1)
    return config.lr + (config.lr_min - config.lr) * frac


def step_batches(
    objective,
    walks: np.ndarray,
    runs: Iterable[np.ndarray],
    config: TrainConfig,
    rng: np.random.Generator,
    index: int,
    total_batches: int,
    *,
    cancelled: Callable[[], object] | None = None,
    on_batch: Callable[[float, int], None] | None = None,
) -> tuple[float, int]:
    """SGD over runs of example positions into ``walks`` (a window-padded
    walk matrix): the one batch step of every epoch body, in-process and
    in the Hogwild workers.

    Each run is stepped ``batch_size`` positions at a time. Windows are
    gathered :data:`BLOCK_BATCHES` batches at a time, and the objective
    plans each block once (:func:`_plan_block`) before its batches step.
    Returns ``(loss_sum, steps)``; each run's loss is summed on its own,
    then added (a streaming epoch is one run per buffer drain).
    ``cancelled()`` is polled before each batch: it raises, or returns
    true to stop early with a partial count (a pool worker).
    ``on_batch(loss, examples)`` runs after each batch.
    """
    batch_size = config.batch_size
    span = BLOCK_BATCHES * batch_size
    loss_sum = 0.0
    steps = 0
    for run in runs:
        run_loss = 0.0
        for lo in range(0, run.shape[0], span):
            centers, contexts = gather_windows(
                walks, run[lo : lo + span], config.window
            )
            for examples, step in _plan_block(
                objective, centers, contexts, batch_size, rng
            ):
                if cancelled is not None and cancelled():
                    return loss_sum + run_loss, steps
                loss = step(scheduled_lr(config, index + steps, total_batches))
                run_loss += loss
                steps += 1
                if on_batch is not None:
                    on_batch(loss, examples)
        loss_sum += run_loss
    return loss_sum, steps


def _plan_block(
    objective,
    centers: np.ndarray,
    contexts: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
) -> Iterable[tuple[int, Callable[[float], float]]]:
    """``(examples, step)`` per batch of a block: the objective's own
    ``plan_block`` (the fused kernel), else one ``batch_step`` each."""
    plan_block = getattr(objective, "plan_block", None)
    if plan_block is not None:
        return plan_block(centers, contexts, batch_size, rng)
    steps = []
    for lo in range(0, centers.shape[0], batch_size):
        c, x = centers[lo : lo + batch_size], contexts[lo : lo + batch_size]
        steps.append((c.shape[0], partial(objective.batch_step, c, x, rng=rng)))
    return steps


def _dense_runs(
    positions: np.ndarray, config: TrainConfig, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """In-memory batch source: every example position, one run per epoch."""
    yield rng.permutation(positions) if config.shuffle else positions


def _stream_runs(
    corpus: WalkCorpus,
    walks: np.ndarray,
    config: TrainConfig,
    vocab: VertexVocab,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Memory-bounded batch source: example positions are listed one walk
    chunk at a time instead of for the whole corpus.

    Beyond the padded walk copy, memory is O(stream_rows × walk_length
    + buffer): the whole-corpus position array and its shuffled copy
    are never held. Shuffling is hierarchical: walk rows are permuted globally, then
    examples pass through a shuffle buffer of several batches before
    being consumed — without the buffer, a small chunk feeds whole
    batches from a handful of walks, whose heavily repeated vertices
    over-step the SGD update.

    Yields one run of positions per buffer drain. A generator, so its
    RNG draws (row order, subsample, buffer permutation) interleave with
    the consumer's batch draws in one fixed order.
    """
    keep_p = (
        vocab.keep_probabilities(config.subsample)
        if config.subsample > 0
        else None
    )
    num_walks = corpus.num_walks
    rows = rng.permutation(num_walks) if config.shuffle else np.arange(num_walks)
    row_starts = range(0, num_walks, config.stream_rows)
    chunks = (
        corpus.example_positions(config.window, rows[lo : lo + config.stream_rows])
        for lo in row_starts
    )
    buffer: list[np.ndarray] = []
    # A trailing None marks the end of the epoch: the final drain.
    for chunk in itertools.chain(chunks, [None]):
        final = chunk is None
        if not final:
            if keep_p is not None:
                centers = walks.reshape(-1)[chunk]
                keep = rng.random(chunk.shape[0]) < keep_p[centers]
                if np.any(keep):
                    chunk = chunk[keep]
            buffer.append(chunk)
        buffered = sum(c.shape[0] for c in buffer)
        if buffered == 0 or (not final and buffered < 8 * config.batch_size):
            continue
        pending = np.concatenate(buffer)
        if config.shuffle:
            pending = rng.permutation(pending)
        # Keep a partial batch in the buffer unless this is the final
        # drain of the epoch.
        full = buffered - (0 if final else buffered % config.batch_size)
        buffer = [pending[full:]]
        yield pending[:full]


@contextlib.contextmanager
def _in_process_epochs(
    objective,
    walks: np.ndarray,
    runs: Callable[[], Iterator[np.ndarray]],
    config: TrainConfig,
    rng: np.random.Generator,
    state: _TrainState,
    num_examples: int,
) -> Iterator[tuple[Callable[[int], tuple[float, int]], int]]:
    """The ``workers=1`` epoch body: :func:`step_batches` over the runs
    of example positions ``runs()`` yields for one epoch. Yields
    ``(run_epoch, total_batches)`` like the pooled body."""
    batches_per_epoch = max(1, int(np.ceil(num_examples / config.batch_size)))
    total_batches = batches_per_epoch * config.epochs
    scope = current_cancel_scope()

    def run_epoch(epoch: int) -> tuple[float, int]:
        # Mid-epoch cancel raises *without* saving: the weights already
        # hold partial-epoch updates, so only the last epoch-boundary
        # snapshot is a valid resume point.
        return step_batches(
            objective,
            walks,
            runs(),
            config,
            rng,
            state.batch_index,
            total_batches,
            cancelled=scope.check,
        )

    yield run_epoch, total_batches


def _run_epochs(
    run_epoch: Callable[[int], tuple[float, int]],
    config: TrainConfig,
    state: _TrainState,
    *,
    total_batches: int,
    num_examples: int,
    save: Callable[..., None] | None = None,
    epoch_callback: Callable[[int, float], None] | None = None,
) -> float:
    """The epoch loop of every run; returns elapsed seconds.

    ``run_epoch(epoch)`` trains one epoch and returns ``(loss_sum,
    batches)``; it raises, before anything is recorded, when the epoch
    was cut short. ``save(final=...)`` snapshots the run. This loop owns
    everything at the epoch boundary: the cancel check and its snapshot,
    the ``train.epoch`` span, early-stop bookkeeping, telemetry, the
    checkpoint and the callback.
    """
    rec = current_recorder()
    scope = current_cancel_scope()

    start = time.perf_counter()
    for epoch in range(state.epoch, config.epochs):
        if state.converged:
            break
        if scope.cancelled():
            # Clean epoch boundary: weights/RNG match the last completed
            # epoch exactly, so this final snapshot is resume-safe.
            # check() also cancels the token on deadline expiry, which a
            # pooled body relays to its workers.
            if save is not None:
                save(final=True)
            scope.check()
        with rec.span("train.epoch", epoch=epoch) as span:
            epoch_start = time.perf_counter()
            loss_sum, batches = run_epoch(epoch)
            state.batch_index += batches
            mean_loss = loss_sum / max(batches, 1)
            state.record_epoch(mean_loss, config)
            if rec.enabled:
                seconds = time.perf_counter() - epoch_start
                lr = scheduled_lr(config, state.batch_index - 1, total_batches)
                words_per_sec = num_examples / max(seconds, 1e-9)
                rec.observe("train.epoch_seconds", seconds)
                rec.inc("train.epochs_run")
                rec.inc("train.examples", num_examples)
                rec.set("train.last_loss", mean_loss)
                rec.set("train.lr", lr)
                rec.set("train.words_per_sec", words_per_sec)
                span.annotate(
                    loss=round(mean_loss, 6),
                    lr=round(lr, 6),
                    examples=num_examples,
                    words_per_sec=round(words_per_sec, 1),
                )
                if state.converged:
                    rec.event(
                        "train.early_stop",
                        epoch=state.epoch,
                        loss=round(mean_loss, 6),
                        stall=state.stall,
                    )
        if save is not None:
            save(final=state.converged or state.epoch == config.epochs)
        if epoch_callback is not None:
            epoch_callback(state.epoch - 1, mean_loss)
    return time.perf_counter() - start

