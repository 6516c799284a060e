"""Tests for memory-bounded streaming training."""

import numpy as np
import pytest

from repro.core.trainer import TrainConfig, train_embeddings
from repro.graph.generators import planted_partition
from repro.walks.corpus import WalkCorpus
from repro.walks.engine import RandomWalkConfig, generate_walks


@pytest.fixture(scope="module")
def corpus():
    g = planted_partition(n=90, groups=3, alpha=0.6, inter_edges=12, seed=0)
    return generate_walks(
        g, RandomWalkConfig(walks_per_vertex=6, walk_length=20, seed=0)
    )


class TestContextBatches:
    def test_num_examples_exact(self, corpus):
        assert corpus.num_examples(5) == corpus.context_arrays(5)[0].shape[0]

    def test_num_examples_excludes_singletons(self):
        walks = np.asarray([[0, 1, 2], [3, -1, -1]], dtype=np.int64)
        c = WalkCorpus(walks, num_vertices=5)
        assert c.num_examples(2) == 3  # the singleton walk contributes 0

    def test_num_examples_validation(self, corpus):
        with pytest.raises(ValueError):
            corpus.num_examples(0)


class TestStreamingTraining:
    def test_same_shape_as_batch(self, corpus):
        res = train_embeddings(
            corpus,
            TrainConfig(dim=8, epochs=2, seed=0, streaming=True, stream_rows=32),
        )
        assert res.vectors.shape == (90, 8)
        assert res.epochs_run == 2

    def test_loss_decreases(self, corpus):
        res = train_embeddings(
            corpus,
            TrainConfig(
                dim=10, epochs=6, seed=0, streaming=True, stream_rows=64,
                early_stop=False,
            ),
        )
        assert res.loss_history[-1] < res.loss_history[0]

    def test_quality_matches_batch_mode(self, corpus):
        """Streaming's hierarchical shuffle must reach the same quality
        band as the fully-shuffled batch path."""
        from repro.ml import KMeans, pairwise_precision_recall

        g = planted_partition(n=90, groups=3, alpha=0.6, inter_edges=12, seed=0)
        truth = g.vertex_labels("community")
        scores = {}
        for streaming in (False, True):
            cfg = TrainConfig(
                dim=12, epochs=6, seed=0, streaming=streaming,
                stream_rows=32, early_stop=False,
            )
            res = train_embeddings(corpus, cfg)
            labels = KMeans(3, n_init=10, seed=0).fit_predict(res.vectors)
            scores[streaming] = pairwise_precision_recall(truth, labels)[0]
        assert scores[True] > scores[False] - 0.1
        assert scores[True] > 0.85

    def test_streaming_with_subsample(self, corpus):
        res = train_embeddings(
            corpus,
            TrainConfig(
                dim=6, epochs=2, seed=0, streaming=True, subsample=1e-2
            ),
        )
        assert res.vectors.shape == (90, 6)

    def test_streaming_early_stop(self, corpus):
        res = train_embeddings(
            corpus,
            TrainConfig(
                dim=6, epochs=40, seed=0, streaming=True, tol=0.5, patience=1
            ),
        )
        assert res.converged
        assert res.epochs_run < 40

    def test_stream_rows_validated(self):
        with pytest.raises(ValueError):
            TrainConfig(stream_rows=0)

    def test_empty_examples_rejected(self):
        singleton = WalkCorpus(
            np.asarray([[0, -1]], dtype=np.int64), num_vertices=2
        )
        with pytest.raises(ValueError):
            train_embeddings(
                singleton, TrainConfig(dim=4, epochs=1, streaming=True)
            )

    def test_v2v_config_streaming_passthrough(self):
        from repro import V2VConfig

        cfg = V2VConfig(streaming=True, stream_rows=77)
        tc = cfg.train_config()
        assert tc.streaming and tc.stream_rows == 77
