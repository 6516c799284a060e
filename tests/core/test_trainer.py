"""Tests for the training loop."""

import tracemalloc

import numpy as np
import pytest

from repro.core.trainer import TrainConfig, train_embeddings
from repro.walks.corpus import WalkCorpus
from repro.walks.engine import RandomWalkConfig, generate_walks
from repro.graph.generators import planted_partition


def tiny_corpus(rng, num_vertices=12, walks=60, length=10, groups=2):
    """Corpus where walks stay inside vertex groups (strong structure)."""
    size = num_vertices // groups
    rows = np.zeros((walks, length), dtype=np.int64)
    for i in range(walks):
        g = i % groups
        rows[i] = g * size + rng.integers(0, size, length)
    return WalkCorpus(rows, num_vertices=num_vertices)


class TestTrainConfig:
    def test_defaults_match_paper(self):
        c = TrainConfig()
        assert c.window == 5
        assert c.objective == "cbow"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"window": 0},
            {"objective": "glove"},
            {"output_layer": "softmax"},
            {"objective": "skipgram", "output_layer": "hierarchical"},
            {"epochs": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"lr_min": 1.0, "lr": 0.5},
            {"negatives": 0},
            {"tol": -1.0},
            {"patience": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestTrainEmbeddings:
    def test_result_shape(self, rng):
        corpus = tiny_corpus(rng)
        res = train_embeddings(corpus, TrainConfig(dim=7, epochs=2, seed=0))
        assert res.vectors.shape == (12, 7)
        assert res.epochs_run == len(res.loss_history) == 2
        assert res.train_seconds > 0

    def test_loss_decreases(self, rng):
        corpus = tiny_corpus(rng, walks=100)
        res = train_embeddings(
            corpus, TrainConfig(dim=8, epochs=8, seed=0, early_stop=False)
        )
        assert res.loss_history[-1] < res.loss_history[0]

    def test_deterministic_given_seed(self, rng):
        corpus = tiny_corpus(rng)
        a = train_embeddings(corpus, TrainConfig(dim=5, epochs=2, seed=9))
        b = train_embeddings(corpus, TrainConfig(dim=5, epochs=2, seed=9))
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_seeds_differ(self, rng):
        corpus = tiny_corpus(rng)
        a = train_embeddings(corpus, TrainConfig(dim=5, epochs=2, seed=1))
        b = train_embeddings(corpus, TrainConfig(dim=5, epochs=2, seed=2))
        assert not np.array_equal(a.vectors, b.vectors)

    def test_empty_corpus_rejected(self):
        corpus = WalkCorpus(np.empty((0, 4), dtype=np.int64), num_vertices=3)
        with pytest.raises(ValueError):
            train_embeddings(corpus, TrainConfig())

    def test_no_examples_rejected(self):
        # Single-token walks produce no (center, context) pairs.
        corpus = WalkCorpus(
            np.asarray([[0, -1], [1, -1]], dtype=np.int64), num_vertices=2
        )
        with pytest.raises(ValueError):
            train_embeddings(corpus, TrainConfig())

    def test_early_stopping_triggers(self, rng):
        corpus = tiny_corpus(rng, walks=40)
        res = train_embeddings(
            corpus,
            TrainConfig(dim=4, epochs=50, seed=0, tol=0.5, patience=1),
        )
        assert res.converged
        assert res.epochs_run < 50

    def test_early_stop_disabled_runs_all(self, rng):
        corpus = tiny_corpus(rng, walks=30)
        res = train_embeddings(
            corpus, TrainConfig(dim=4, epochs=4, seed=0, early_stop=False)
        )
        assert res.epochs_run == 4
        assert not res.converged

    def test_hierarchical_softmax_path(self, rng):
        corpus = tiny_corpus(rng)
        res = train_embeddings(
            corpus,
            TrainConfig(dim=6, epochs=3, seed=0, output_layer="hierarchical"),
        )
        assert res.vectors.shape == (12, 6)
        assert res.loss_history[-1] <= res.loss_history[0]

    def test_skipgram_path(self, rng):
        corpus = tiny_corpus(rng)
        res = train_embeddings(
            corpus, TrainConfig(dim=6, epochs=3, seed=0, objective="skipgram")
        )
        assert res.vectors.shape == (12, 6)

    def test_subsampling_path(self, rng):
        corpus = tiny_corpus(rng)
        res = train_embeddings(
            corpus, TrainConfig(dim=4, epochs=2, seed=0, subsample=1e-2)
        )
        assert res.vectors.shape == (12, 4)

    def test_group_structure_learned(self, rng):
        """Vertices co-walking in groups end up more similar in-group."""
        corpus = tiny_corpus(rng, num_vertices=12, walks=200, length=12)
        res = train_embeddings(
            corpus, TrainConfig(dim=10, epochs=10, seed=0, early_stop=False)
        )
        x = res.vectors
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        sims = x @ x.T
        intra = (sims[:6, :6].mean() + sims[6:, 6:].mean()) / 2
        inter = sims[:6, 6:].mean()
        assert intra > inter + 0.2

    def test_unseen_vertices_keep_init(self, rng):
        # Vertex universe larger than observed tokens.
        rows = np.asarray([[0, 1, 0, 1]], dtype=np.int64)
        corpus = WalkCorpus(rows, num_vertices=5)
        res = train_embeddings(corpus, TrainConfig(dim=4, epochs=2, seed=0))
        # Rows 2..4 never trained: tiny init scale preserved.
        assert np.abs(res.vectors[2:]).max() <= 0.5 / 4 + 1e-12


class TestGraphIntegration:
    def test_training_time_decreases_with_alpha(self):
        """Fig 7 mechanism: stronger structure converges in fewer epochs."""
        epochs = {}
        for alpha in (0.1, 0.9):
            g = planted_partition(n=200, groups=4, alpha=alpha, inter_edges=40, seed=0)
            corpus = generate_walks(
                g, RandomWalkConfig(walks_per_vertex=5, walk_length=20, seed=0)
            )
            res = train_embeddings(
                corpus,
                TrainConfig(dim=16, epochs=30, seed=0, tol=5e-3, patience=2),
            )
            epochs[alpha] = res.epochs_run
        assert epochs[0.9] <= epochs[0.1]


class TestSerialFallback:
    """Without shared memory, workers > 1 trains in-process instead."""

    def test_missing_shared_memory_trains_serially(self, monkeypatch, tmp_path):
        import io

        import repro.parallel.hogwild as hogwild
        from repro.obs.logging import parse_jsonl
        from repro.obs.recorder import ObsConfig, session

        corpus = tiny_corpus(np.random.default_rng(0))
        cfg = dict(dim=5, epochs=2, batch_size=32, seed=4, early_stop=False)
        serial = train_embeddings(corpus, TrainConfig(**cfg))

        monkeypatch.setattr(hogwild, "SHM_AVAILABLE", False)
        events_path = tmp_path / "events.jsonl"
        obs = ObsConfig(log_level="error", log_json=str(events_path))
        with session(obs, stream=io.StringIO()):
            with pytest.warns(RuntimeWarning, match="shared memory"):
                result = train_embeddings(corpus, TrainConfig(**cfg, workers=2))

        fallback = [
            e for e in parse_jsonl(events_path)
            if e["event"] == "train.serial_fallback"
        ]
        assert len(fallback) == 1 and fallback[0]["workers"] == 2
        assert result.config.workers == 1
        np.testing.assert_array_equal(result.vectors, serial.vectors)


class TestMemory:
    def test_peak_heap_stays_within_a_few_walk_matrices(self):
        # Examples are positions into a padded copy of the walks, not a
        # materialized (center, 2·window contexts) array — which alone
        # would be ~11x the walk matrix at window 5.
        g = planted_partition(n=2000, groups=20, alpha=0.1, inter_edges=400, seed=0)
        corpus = generate_walks(
            g, RandomWalkConfig(walks_per_vertex=10, walk_length=40, seed=0)
        )
        config = TrainConfig(dim=16, epochs=1, seed=0)
        tracemalloc.start()
        try:
            train_embeddings(corpus, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The walk matrix's bytes at 8 bytes per token; the int32 corpus
        # takes half that, but the limit stays the same absolute figure.
        # One int32 position array, shuffled in place, keeps the peak
        # near 1.4x; int64 positions with a shuffled copy per epoch
        # reach 2.9x.
        walk_bytes = 8 * corpus.walks.size
        assert peak <= 2 * walk_bytes, (
            f"peak {peak / walk_bytes:.2f}x the walk matrix's int64 bytes"
        )
