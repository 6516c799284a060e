"""Shared-memory Hogwild trainer: determinism, quality, durability, chaos.

The contract under test (ISSUE 2):

- ``workers=1`` is the serial trainer: repeated fixed-seed runs are
  bitwise-identical, and no shared memory is allocated;
- multi-worker training still learns the planted communities and lands
  near the serial loss;
- checkpoint–resume under the shared-memory mode stays bitwise-identical
  and refuses a fingerprint whose worker count changed;
- no shared-memory segment outlives a run — normal exit, exception, or
  an injected worker death (``os._exit`` inside the pool).
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.trainer import TrainConfig, train_embeddings
from repro.graph.generators import planted_partition
from repro.ml import KMeans, pairwise_precision_recall
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder, use
from repro.parallel.hogwild import hogwild_supported
from repro.parallel.persistent import _CANCEL_GRACE
from repro.parallel.pool import parallel_map
from repro.pipeline import ExecutionContext
from repro.resilience.chaos import FaultInjector
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.lifecycle import CancellationToken, RunInterrupted, cancel_scope
from repro.walks.engine import RandomWalkConfig, generate_walks

from tests.parallel.test_shm import shm_entries

pytestmark = pytest.mark.skipif(
    not hogwild_supported(), reason="platform has no shared memory"
)


@pytest.fixture(scope="module")
def graph():
    return planted_partition(n=90, groups=3, alpha=0.7, inter_edges=10, seed=0)


@pytest.fixture(scope="module")
def corpus(graph):
    return generate_walks(
        graph, RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=5)
    )


TRAIN_CFG = dict(dim=12, epochs=4, batch_size=128, seed=3, early_stop=False)


@pytest.fixture()
def no_leaks():
    before = shm_entries()
    yield
    leaked = shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


class TestWorkersOneBitwise:
    def test_hogwild_matches_serial_negative_sampling(self, corpus, no_leaks):
        config = TrainConfig(**TRAIN_CFG)
        serial = train_embeddings(corpus, config)
        again = train_embeddings(corpus, config)
        np.testing.assert_array_equal(serial.vectors, again.vectors)
        assert serial.loss_history == again.loss_history

    def test_hogwild_matches_serial_hierarchical(self, corpus, no_leaks):
        config = TrainConfig(**TRAIN_CFG, output_layer="hierarchical")
        serial = train_embeddings(corpus, config)
        again = train_embeddings(corpus, config)
        np.testing.assert_array_equal(serial.vectors, again.vectors)

    def test_facade_workers_one_is_serial(self, corpus):
        config = TrainConfig(**TRAIN_CFG)
        assert np.array_equal(
            train_embeddings(corpus, config).vectors,
            train_embeddings(corpus, TrainConfig(**TRAIN_CFG, workers=1)).vectors,
        )


class TestMultiWorker:
    def test_trains_and_cleans_up(self, corpus, no_leaks):
        config = TrainConfig(**TRAIN_CFG, workers=2)
        result = train_embeddings(corpus, config)
        assert result.epochs_run == config.epochs
        assert result.vectors.shape == (corpus.num_vertices, config.dim)
        assert np.all(np.isfinite(result.vectors))
        # Learns: the loss must drop substantially from the first epoch.
        assert result.loss_history[-1] < 0.9 * result.loss_history[0]

    def test_loss_near_serial_and_communities_recovered(
        self, graph, corpus, no_leaks
    ):
        cfg = dict(TRAIN_CFG, epochs=8)
        serial = train_embeddings(corpus, TrainConfig(**cfg))
        hogwild = train_embeddings(corpus, TrainConfig(**cfg, workers=2))
        # Hogwild races cost a little per-epoch progress; it must stay in
        # the same regime as serial training (equal-or-better is typical
        # on multicore hardware, a small gap is acceptable under
        # single-core interleaving).
        assert hogwild.loss_history[-1] <= serial.loss_history[-1] * 1.25
        # Table-1 gate: k-means on the Hogwild embedding still recovers
        # the planted communities.
        truth = graph.vertex_labels("community")
        km = KMeans(3, n_init=10, seed=0).fit(hogwild.vectors)
        precision, recall = pairwise_precision_recall(truth, km.labels)
        assert precision >= 0.9
        assert recall >= 0.9

    def test_objective_validation_still_applies(self):
        with pytest.raises(ValueError, match="workers"):
            TrainConfig(workers=0)


def _pid(_):
    return os.getpid()


class TestCooperativeCancel:
    def test_pooled_workers_return_mid_epoch_without_a_kill(self, graph, no_leaks):
        """A cancel mid-epoch reaches the pooled workers, which hand back
        their partial shards: the run raises well inside the pool's
        cancel grace with that epoch unrecorded, nothing is respawned,
        and the workers that trained serve the next map (the grace path
        would have SIGKILLed them)."""
        # Epochs of ~1.5 s on two workers, so a cancel 0.2 s into epoch 1
        # lands while both shards are stepping batches.
        corpus = generate_walks(
            graph, RandomWalkConfig(walks_per_vertex=60, walk_length=60, seed=5)
        )
        config = TrainConfig(**dict(TRAIN_CFG, epochs=20, batch_size=8), workers=2)
        token = CancellationToken()
        cancelled_at: list[float] = []

        def cancel() -> None:
            cancelled_at.append(time.monotonic())
            token.cancel("signal")

        def after_epoch(epoch: int, loss: float) -> None:
            if epoch == 0:
                threading.Timer(0.2, cancel).start()

        trainers = set(parallel_map(_pid, [0, 1], workers=2))
        registry = MetricsRegistry()
        with use(Recorder(registry)), cancel_scope(token):
            with pytest.raises(RunInterrupted):
                train_embeddings(corpus, config, epoch_callback=after_epoch)
            raised_at = time.monotonic()
        counters = registry.snapshot()["counters"]
        assert counters["supervisor.cancelled"] == 1  # landed inside a map
        assert counters["train.epochs_run"] == 1  # epoch 1 was cut short
        assert raised_at - cancelled_at[0] < _CANCEL_GRACE
        assert counters.get("supervisor.respawns", 0) == 0
        assert set(parallel_map(_pid, [0, 1], workers=2)) == trainers


class _CrashAfterEpoch:
    """Epoch callback that raises once the given epoch completes.

    Fires *after* the snapshot, so the checkpoint on disk is exactly what
    an OOM-killed run would have left behind.
    """

    def __init__(self, epoch: int) -> None:
        self.crash_epoch = epoch

    def __call__(self, epoch: int, mean_loss: float) -> None:
        if epoch == self.crash_epoch:
            raise RuntimeError(f"injected crash after epoch {epoch}")


class TestCheckpointResume:
    def test_resume_workers_one_is_bitwise_identical(self, corpus, tmp_path, no_leaks):
        config = TrainConfig(**TRAIN_CFG)
        baseline = train_embeddings(corpus, config)

        with pytest.raises(RuntimeError, match="injected crash"):
            train_embeddings(
                corpus,
                config,
                context=ExecutionContext(checkpoint_dir=tmp_path),
                epoch_callback=_CrashAfterEpoch(1),
            )
        assert CheckpointManager(tmp_path).exists("trainer")

        # Resuming replays the remaining epochs' exact RNG streams.
        resumed = train_embeddings(
            corpus,
            config,
            context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
        )
        np.testing.assert_array_equal(baseline.vectors, resumed.vectors)
        assert resumed.loss_history == baseline.loss_history

    def test_resume_refuses_changed_worker_count(self, corpus, tmp_path, no_leaks):
        train_embeddings(
            corpus,
            TrainConfig(**TRAIN_CFG, workers=2),
            context=ExecutionContext(checkpoint_dir=tmp_path),
        )
        with pytest.raises(ValueError, match="different configuration"):
            train_embeddings(
                corpus,
                TrainConfig(**TRAIN_CFG),
                context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
            )

    def test_multiworker_resume_continues_epochs(self, corpus, tmp_path, no_leaks):
        config = TrainConfig(**TRAIN_CFG, workers=2)
        with pytest.raises(RuntimeError, match="injected crash"):
            train_embeddings(
                corpus,
                config,
                context=ExecutionContext(checkpoint_dir=tmp_path),
                epoch_callback=_CrashAfterEpoch(1),
            )
        resumed = train_embeddings(
            corpus,
            config,
            context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
        )
        assert resumed.epochs_run == config.epochs
        assert len(resumed.loss_history) == config.epochs
        assert np.all(np.isfinite(resumed.vectors))


class TestChaos:
    def test_killed_worker_recovers_and_leaves_no_segments(
        self, corpus, tmp_path, no_leaks
    ):
        # The first epoch task to run inside a pool worker hard-exits
        # (os._exit, like an OOM kill); the once-marker lets the retried
        # pool pass succeed. Training must complete and unlink everything.
        chaos = ExecutionContext(
            fault_injector=lambda task: FaultInjector(
                task,
                exit_on_calls={1},
                only_in_subprocess=True,
                once_marker=tmp_path / "fired",
            )
        )
        config = TrainConfig(**TRAIN_CFG, workers=2)
        result = train_embeddings(corpus, config, context=chaos)
        assert (tmp_path / "fired").exists(), "fault never fired"
        assert result.epochs_run == config.epochs
        assert np.all(np.isfinite(result.vectors))

    def test_exception_mid_training_unlinks_segments(self, corpus):
        before = shm_entries()

        def explode(epoch, loss):
            raise RuntimeError("callback boom")

        with pytest.raises(RuntimeError, match="callback boom"):
            train_embeddings(
                corpus,
                TrainConfig(**TRAIN_CFG, workers=2),
                epoch_callback=explode,
            )
        assert shm_entries() - before == set()
