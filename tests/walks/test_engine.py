"""Tests for the constrained random-walk engine."""

import numpy as np
import pytest

from repro.graph.core import Graph
from repro.graph.generators import complete_graph, cycle_graph
from repro.walks.engine import PAD, RandomWalkConfig, WalkMode, generate_walks


def _assert_valid_walk_edges(g, corpus):
    """Every consecutive (u, v) in every walk must be an arc of g."""
    arcs = set(g.arcs())
    for walk in corpus.sentences():
        for u, v in zip(walk[:-1], walk[1:]):
            assert (int(u), int(v)) in arcs, (u, v)


class TestConfig:
    def test_defaults(self):
        c = RandomWalkConfig()
        assert c.walks_per_vertex == 10
        assert c.walk_length == 80
        assert c.mode is WalkMode.UNIFORM

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWalkConfig(walks_per_vertex=0)
        with pytest.raises(ValueError):
            RandomWalkConfig(walk_length=0)
        with pytest.raises(ValueError):
            RandomWalkConfig(time_window=-1, mode=WalkMode.TEMPORAL)
        with pytest.raises(ValueError):
            RandomWalkConfig(time_window=1.0)  # window needs temporal mode


class TestUniformWalks:
    def test_shape_and_starts(self, triangle):
        cfg = RandomWalkConfig(walks_per_vertex=4, walk_length=7, seed=0)
        corpus = generate_walks(triangle, cfg)
        assert corpus.walks.shape == (12, 7)
        starts = corpus.walks[:, 0]
        assert np.bincount(starts, minlength=3).tolist() == [4, 4, 4]

    def test_walks_follow_edges(self, two_cliques):
        cfg = RandomWalkConfig(walks_per_vertex=3, walk_length=10, seed=1)
        _assert_valid_walk_edges(two_cliques, generate_walks(two_cliques, cfg))

    def test_full_length_on_connected_graph(self, triangle):
        cfg = RandomWalkConfig(walks_per_vertex=2, walk_length=9, seed=2)
        corpus = generate_walks(triangle, cfg)
        assert np.all(corpus.lengths == 9)

    def test_isolated_vertex_terminates_immediately(self):
        g = Graph(3, [(0, 1)])
        cfg = RandomWalkConfig(walks_per_vertex=1, walk_length=5, seed=0)
        corpus = generate_walks(g, cfg)
        lengths = {int(corpus.walks[i, 0]): int(corpus.lengths[i]) for i in range(3)}
        assert lengths[2] == 1  # vertex 2 has no neighbors

    def test_reproducible(self, two_cliques):
        cfg = RandomWalkConfig(walks_per_vertex=2, walk_length=8, seed=42)
        a = generate_walks(two_cliques, cfg)
        b = generate_walks(two_cliques, cfg)
        np.testing.assert_array_equal(a.walks, b.walks)

    def test_different_seeds_differ(self, two_cliques):
        a = generate_walks(two_cliques, RandomWalkConfig(walk_length=20, seed=1))
        b = generate_walks(two_cliques, RandomWalkConfig(walk_length=20, seed=2))
        assert not np.array_equal(a.walks, b.walks)

    def test_start_vertices_subset(self, two_cliques):
        cfg = RandomWalkConfig(
            walks_per_vertex=5,
            walk_length=4,
            seed=0,
            start_vertices=np.asarray([0, 7]),
        )
        corpus = generate_walks(two_cliques, cfg)
        assert corpus.num_walks == 10
        assert set(corpus.walks[:, 0].tolist()) == {0, 7}

    def test_start_vertices_out_of_range(self, triangle):
        cfg = RandomWalkConfig(start_vertices=np.asarray([5]))
        with pytest.raises(ValueError):
            generate_walks(triangle, cfg)

    def test_walk_length_one(self, triangle):
        corpus = generate_walks(
            triangle, RandomWalkConfig(walks_per_vertex=1, walk_length=1, seed=0)
        )
        assert np.all(corpus.lengths == 1)

    def test_empty_graph(self):
        corpus = generate_walks(Graph(0), RandomWalkConfig(seed=0))
        assert corpus.num_walks == 0

    def test_refuses_more_vertices_than_int32_tokens_hold(self):
        class Huge:  # only its size is read before the refusal
            n = 2**31

        with pytest.raises(ValueError, match="int32"):
            generate_walks(Huge(), RandomWalkConfig(seed=0))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", [WalkMode.UNIFORM, WalkMode.WEIGHTED])
    def test_edgeless_graph_walks_stay_at_start(self, mode, workers):
        from repro.graph.core import EdgeList

        empty = np.zeros(0, dtype=np.int64)
        g = Graph(3, EdgeList(empty, empty, weights=np.zeros(0)))
        cfg = RandomWalkConfig(walks_per_vertex=2, walk_length=4, seed=0, mode=mode)
        walks = generate_walks(g, cfg, workers=workers).walks
        assert np.array_equal(walks[:, 0], np.tile(np.arange(3), 2))
        assert np.all(walks[:, 1:] == PAD)

    def test_neighbor_distribution_uniform(self, rng):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        cfg = RandomWalkConfig(
            walks_per_vertex=30000,
            walk_length=2,
            seed=3,
            start_vertices=np.asarray([0]),
        )
        corpus = generate_walks(g, cfg)
        second = corpus.walks[:, 1]
        freq = np.bincount(second, minlength=4)[1:] / 30000
        np.testing.assert_allclose(freq, 1 / 3, atol=0.02)

    def test_default_config_used_when_none(self, triangle):
        corpus = generate_walks(triangle)
        assert corpus.num_walks == 3 * 10


class TestDirectedWalks:
    def test_follows_direction_and_terminates(self, directed_chain):
        cfg = RandomWalkConfig(walks_per_vertex=2, walk_length=10, seed=0)
        corpus = generate_walks(directed_chain, cfg)
        # A walk from 0 must be exactly 0,1,2,3 then terminate.
        from_zero = corpus.walks[corpus.walks[:, 0] == 0]
        for w in from_zero:
            assert w[:4].tolist() == [0, 1, 2, 3]
            assert np.all(w[4:] == PAD)

    def test_dead_end_start(self, directed_chain):
        cfg = RandomWalkConfig(
            walks_per_vertex=1, walk_length=5, seed=0, start_vertices=np.asarray([3])
        )
        corpus = generate_walks(directed_chain, cfg)
        assert corpus.lengths.tolist() == [1]


class TestWeightedWalks:
    def test_requires_weights(self, triangle):
        with pytest.raises(ValueError):
            generate_walks(triangle, RandomWalkConfig(mode=WalkMode.WEIGHTED))

    def test_weight_proportional_steps(self):
        g = Graph(3, [(0, 1, 9.0), (0, 2, 1.0)], directed=True)
        cfg = RandomWalkConfig(
            walks_per_vertex=20000,
            walk_length=2,
            seed=0,
            mode=WalkMode.WEIGHTED,
            start_vertices=np.asarray([0]),
        )
        corpus = generate_walks(g, cfg)
        freq = np.bincount(corpus.walks[:, 1], minlength=3) / 20000
        np.testing.assert_allclose(freq[1], 0.9, atol=0.02)

    def test_walks_follow_edges(self):
        g = Graph(5, [(i, (i + 1) % 5, float(i + 1)) for i in range(5)])
        cfg = RandomWalkConfig(walks_per_vertex=3, walk_length=6, seed=1, mode=WalkMode.WEIGHTED)
        _assert_valid_walk_edges(g, generate_walks(g, cfg))


class TestVertexWeightedWalks:
    def test_requires_vertex_weights(self, triangle):
        with pytest.raises(ValueError):
            generate_walks(triangle, RandomWalkConfig(mode=WalkMode.VERTEX_WEIGHTED))

    def test_target_weight_proportional(self):
        g = Graph(
            3,
            [(0, 1), (0, 2)],
            directed=True,
            vertex_weights=[1.0, 3.0, 1.0],
        )
        cfg = RandomWalkConfig(
            walks_per_vertex=20000,
            walk_length=2,
            seed=0,
            mode=WalkMode.VERTEX_WEIGHTED,
            start_vertices=np.asarray([0]),
        )
        corpus = generate_walks(g, cfg)
        freq = np.bincount(corpus.walks[:, 1], minlength=3) / 20000
        np.testing.assert_allclose(freq[1], 0.75, atol=0.02)


class TestTemporalWalks:
    def test_requires_times(self, triangle):
        with pytest.raises(ValueError):
            generate_walks(triangle, RandomWalkConfig(mode=WalkMode.TEMPORAL))

    def test_strictly_increasing_times(self, temporal_line):
        cfg = RandomWalkConfig(walks_per_vertex=5, walk_length=10, seed=0, mode=WalkMode.TEMPORAL)
        corpus = generate_walks(temporal_line, cfg)
        from_zero = corpus.walks[corpus.walks[:, 0] == 0]
        for w in from_zero:
            assert w[:4].tolist() == [0, 1, 2, 3]

    def test_time_decreasing_edge_blocks(self):
        # 0->1 at t=20, 1->2 at t=10: walk cannot continue past 1.
        g = Graph(3, [(0, 1, 1.0, 20.0), (1, 2, 1.0, 10.0)], directed=True)
        cfg = RandomWalkConfig(
            walks_per_vertex=4, walk_length=5, seed=0, mode=WalkMode.TEMPORAL,
            start_vertices=np.asarray([0]),
        )
        corpus = generate_walks(g, cfg)
        assert np.all(corpus.lengths == 2)

    def test_equal_times_block(self):
        # Equal timestamps are not strictly increasing.
        g = Graph(3, [(0, 1, 1.0, 10.0), (1, 2, 1.0, 10.0)], directed=True)
        cfg = RandomWalkConfig(
            walks_per_vertex=2, walk_length=5, seed=0, mode=WalkMode.TEMPORAL,
            start_vertices=np.asarray([0]),
        )
        corpus = generate_walks(g, cfg)
        assert np.all(corpus.lengths == 2)

    def test_window_constraint(self):
        # 0->1 at t=0; from 1: edges at t=5 (inside window 10) and t=50.
        g = Graph(
            4,
            [(0, 1, 1.0, 0.0), (1, 2, 1.0, 5.0), (1, 3, 1.0, 50.0)],
            directed=True,
        )
        cfg = RandomWalkConfig(
            walks_per_vertex=200,
            walk_length=3,
            seed=0,
            mode=WalkMode.TEMPORAL,
            time_window=10.0,
            start_vertices=np.asarray([0]),
        )
        corpus = generate_walks(g, cfg)
        thirds = corpus.walks[:, 2]
        assert set(thirds.tolist()) == {2}  # vertex 3 violates the window

    def test_first_hop_unconstrained_by_window(self):
        g = Graph(2, [(0, 1, 1.0, 1000.0)], directed=True)
        cfg = RandomWalkConfig(
            walks_per_vertex=1, walk_length=2, seed=0,
            mode=WalkMode.TEMPORAL, time_window=1.0,
            start_vertices=np.asarray([0]),
        )
        corpus = generate_walks(g, cfg)
        assert corpus.lengths.tolist() == [2]

    def test_temporal_choice_uniform_among_eligible(self):
        g = Graph(
            4,
            [(0, 1, 1.0, 1.0), (0, 2, 1.0, 2.0), (0, 3, 1.0, 3.0)],
            directed=True,
        )
        cfg = RandomWalkConfig(
            walks_per_vertex=30000,
            walk_length=2,
            seed=0,
            mode=WalkMode.TEMPORAL,
            start_vertices=np.asarray([0]),
        )
        corpus = generate_walks(g, cfg)
        freq = np.bincount(corpus.walks[:, 1], minlength=4)[1:] / 30000
        np.testing.assert_allclose(freq, 1 / 3, atol=0.02)


class TestCoverage:
    def test_connected_graph_full_coverage(self):
        g = cycle_graph(20)
        corpus = generate_walks(g, RandomWalkConfig(walks_per_vertex=2, walk_length=10, seed=0))
        assert corpus.coverage() == 1.0

    def test_complete_graph_token_balance(self):
        g = complete_graph(10)
        corpus = generate_walks(g, RandomWalkConfig(walks_per_vertex=20, walk_length=20, seed=0))
        counts = corpus.token_counts()
        assert counts.min() > 0.7 * counts.mean()
