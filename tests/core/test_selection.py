"""Tests for principled parameter selection (paper §VII open question)."""

import numpy as np
import pytest

from repro.core.model import V2VConfig
from repro.core.selection import (
    neighborhood_overlap,
    select_dimension,
    select_walk_budget,
)
from repro.graph.generators import planted_partition
from repro.walks.engine import RandomWalkConfig, generate_walks


@pytest.fixture(scope="module")
def graph():
    return planted_partition(n=90, groups=3, alpha=0.6, inter_edges=12, seed=0)


FAST = V2VConfig(walks_per_vertex=5, walk_length=20, epochs=4, seed=0)


class TestNeighborhoodOverlap:
    def test_identical_embeddings_overlap_one(self, rng):
        x = rng.random((40, 8))
        assert neighborhood_overlap(x, x, k=5) == 1.0

    def test_random_embeddings_low(self, rng):
        a = rng.normal(size=(100, 8))
        b = rng.normal(size=(100, 8))
        assert neighborhood_overlap(a, b, k=5) < 0.3

    def test_rotation_invariant(self, rng):
        """Cosine k-NN sets are preserved by orthogonal maps."""
        x = rng.normal(size=(50, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        assert neighborhood_overlap(x, x @ q, k=5) == 1.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            neighborhood_overlap(rng.random((5, 2)), rng.random((6, 2)))
        with pytest.raises(ValueError):
            neighborhood_overlap(rng.random((5, 2)), rng.random((5, 2)), k=5)


class TestSelectDimension:
    def test_silhouette_selection(self, graph):
        best, scores = select_dimension(
            graph, dims=(4, 16), k=3, config=FAST, seed=0
        )
        assert best in (4, 16)
        assert len(scores) == 2
        assert all(s.train_seconds > 0 for s in scores)
        # Best really is the argmax of the recorded scores.
        top = max(scores, key=lambda s: (s.score, -s.dim))
        assert top.dim == best

    def test_accepts_prebuilt_corpus(self, graph):
        corpus = generate_walks(
            graph, RandomWalkConfig(walks_per_vertex=5, walk_length=20, seed=0)
        )
        best, scores = select_dimension(
            corpus, dims=(8,), k=3, config=FAST, seed=0
        )
        assert best == 8

    def test_stability_criterion(self, graph):
        best, scores = select_dimension(
            graph, dims=(16,), criterion="stability", config=FAST, seed=0
        )
        assert best == 16
        # Real structure at this alpha: runs should agree substantially.
        assert scores[0].score > 0.2

    def test_time_penalty_prefers_cheap(self, graph):
        corpus = generate_walks(
            graph, RandomWalkConfig(walks_per_vertex=5, walk_length=20, seed=0)
        )
        best_penalized, scores_penalized = select_dimension(
            corpus, dims=(8, 64), k=3, config=FAST, seed=0, time_penalty=1000.0
        )
        # A huge time penalty must select the cheaper dimension: at 1000
        # per second, a millisecond of training outweighs the whole
        # silhouette range. "Cheaper" is judged on the timings of the
        # same run: wall times of two runs differ by more than the gap
        # between the two dimensions.
        cheapest = min(scores_penalized, key=lambda s: s.train_seconds).dim
        assert best_penalized == cheapest

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            select_dimension(graph, dims=())
        with pytest.raises(ValueError):
            select_dimension(graph, criterion="magic")
        with pytest.raises(ValueError):
            select_dimension(graph, time_penalty=-1.0)


class TestSelectWalkBudget:
    def test_finds_stable_budget(self, graph):
        chosen, steps = select_walk_budget(
            graph,
            walk_length=20,
            start=1,
            max_walks_per_vertex=16,
            stability_threshold=0.3,
            dim=16,
            seed=0,
        )
        assert 1 <= chosen <= 16
        assert np.isnan(steps[0].overlap_with_previous)
        assert steps[-1].walks_per_vertex == chosen or chosen == 16
        # Tokens grow monotonically with the budget.
        tokens = [s.tokens for s in steps]
        assert tokens == sorted(tokens)

    def test_threshold_one_runs_to_cap(self, graph):
        chosen, steps = select_walk_budget(
            graph,
            walk_length=10,
            start=1,
            max_walks_per_vertex=4,
            stability_threshold=1.0,
            dim=8,
            seed=0,
        )
        # Perfect agreement never happens with finite corpora, so the
        # search exhausts the cap.
        assert chosen == 4 or steps[-1].overlap_with_previous >= 1.0

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            select_walk_budget(graph, start=0)
        with pytest.raises(ValueError):
            select_walk_budget(graph, start=8, max_walks_per_vertex=4)
        with pytest.raises(ValueError):
            select_walk_budget(graph, stability_threshold=0.0)
