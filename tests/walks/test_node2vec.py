"""Tests for node2vec second-order biased walks."""

import numpy as np
import pytest

from repro.graph.core import Graph
from repro.graph.generators import complete_graph, planted_partition
from repro.walks.engine import RandomWalkConfig, WalkMode, generate_walks


def backtrack_rate(g, p, q, seed=0, walks=30, length=12):
    cfg = RandomWalkConfig(
        walks_per_vertex=walks, walk_length=length, seed=seed,
        mode=WalkMode.NODE2VEC, p=p, q=q,
    )
    corpus = generate_walks(g, cfg)
    w = corpus.walks
    valid = w[:, 2:] >= 0
    bt = (w[:, 2:] == w[:, :-2]) & valid
    return bt.sum() / max(valid.sum(), 1)


class TestConfig:
    def test_pq_validation(self):
        with pytest.raises(ValueError):
            RandomWalkConfig(p=0.0, mode=WalkMode.NODE2VEC)
        with pytest.raises(ValueError):
            RandomWalkConfig(q=-1.0, mode=WalkMode.NODE2VEC)
        with pytest.raises(ValueError):
            RandomWalkConfig(p=2.0)  # p/q require node2vec mode

    def test_defaults_allow_other_modes(self):
        RandomWalkConfig(mode=WalkMode.UNIFORM)  # p=q=1 fine


class TestWalkValidity:
    def test_walks_follow_edges(self):
        g = planted_partition(n=60, groups=3, alpha=0.5, inter_edges=10, seed=0)
        cfg = RandomWalkConfig(
            walks_per_vertex=3, walk_length=10, seed=0,
            mode=WalkMode.NODE2VEC, p=0.5, q=2.0,
        )
        corpus = generate_walks(g, cfg)
        arcs = set(g.arcs())
        for walk in corpus.sentences():
            for u, v in zip(walk[:-1], walk[1:]):
                assert (int(u), int(v)) in arcs

    def test_dead_ends_terminate(self):
        g = Graph(3, [(0, 1), (1, 2)], directed=True)
        cfg = RandomWalkConfig(
            walks_per_vertex=2, walk_length=6, seed=0,
            mode=WalkMode.NODE2VEC, p=0.5, q=0.5,
        )
        corpus = generate_walks(g, cfg)
        from_zero = corpus.walks[corpus.walks[:, 0] == 0]
        for w in from_zero:
            assert w[:3].tolist() == [0, 1, 2]
            assert np.all(w[3:] == -1)

    def test_reproducible(self):
        g = complete_graph(12)
        cfg = RandomWalkConfig(
            walks_per_vertex=2, walk_length=8, seed=5,
            mode=WalkMode.NODE2VEC, p=0.25, q=4.0,
        )
        a = generate_walks(g, cfg)
        b = generate_walks(g, cfg)
        np.testing.assert_array_equal(a.walks, b.walks)


class TestBias:
    def test_low_p_increases_backtracking(self):
        g = planted_partition(n=60, groups=3, alpha=0.5, inter_edges=10, seed=0)
        assert backtrack_rate(g, p=0.05, q=1.0) > backtrack_rate(g, p=20.0, q=1.0) + 0.2

    def test_p1_q1_matches_uniform_statistics(self):
        """p = q = 1 must reduce to the first-order walk distribution."""
        g = complete_graph(10)
        n2v = backtrack_rate(g, p=1.0, q=1.0, walks=200)
        # Uniform walk on K10: P(backtrack) = 1/9.
        assert abs(n2v - 1 / 9) < 0.02

    def test_high_q_stays_local(self):
        """Large q discourages leaving the previous vertex's neighborhood:
        on a community graph, fewer cross-community transitions."""
        g = planted_partition(n=80, groups=4, alpha=0.8, inter_edges=40, seed=0)
        truth = g.vertex_labels("community")

        def cross_rate(q):
            cfg = RandomWalkConfig(
                walks_per_vertex=20, walk_length=15, seed=0,
                mode=WalkMode.NODE2VEC, p=1.0, q=q,
            )
            corpus = generate_walks(g, cfg)
            w = corpus.walks
            a, b = w[:, :-1], w[:, 1:]
            mask = (a >= 0) & (b >= 0)
            return (truth[a[mask]] != truth[b[mask]]).mean()

        assert cross_rate(8.0) < cross_rate(0.125)

    def test_triangle_step_weight(self):
        """On a path A-B-C where C has neighbors {B, D}: from B (prev A),
        stepping to C then from C the options are B (return, 1/p) and D
        (explore, 1/q, D not adjacent to B)."""
        # Star-free line: 0-1-2-3. From 1 with prev 0: neighbors {0, 2}.
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        # p tiny -> from vertex 1 (prev 0) returns to 0 almost always.
        cfg = RandomWalkConfig(
            walks_per_vertex=300, walk_length=3, seed=0,
            mode=WalkMode.NODE2VEC, p=0.01, q=1.0,
            start_vertices=np.asarray([0]),
        )
        corpus = generate_walks(g, cfg)
        # Walk 0 -> 1 -> x: x should be 0 (return) ~99% of the time.
        third = corpus.walks[:, 2]
        assert (third == 0).mean() > 0.9


def _exact_second_step(g, prev, cur, p, q):
    """node2vec's one-step law from ``cur`` having come from ``prev``:
    weight 1/p to return, 1 to a neighbor of ``prev``, 1/q otherwise
    (the alias-edge weights of Grover & Leskovec's reference code)."""
    targets = np.sort(g.neighbors(cur))
    weights = np.array(
        [
            1.0 / p if x == prev else 1.0 if g.has_edge(prev, int(x)) else 1.0 / q
            for x in targets
        ]
    )
    return targets, weights / weights.sum()


class TestTransitionLaw:
    """Chi-square of observed one-step transitions against the exact law."""

    # (edges, prev, cur, p, q, lump): ``lump`` tests "return" against
    # "any other target" where single targets expect too few counts for
    # the chi-square.
    CASES = {
        # Return, two triangle steps and three exploring steps from
        # vertex 1 after arriving from vertex 0: every weight class
        # appears, and rejection and exact draws both run.
        "moderate": (
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)],
            0,
            1,
            0.5,
            2.0,
            False,
        ),
        # A 20-leaf star at p=0.01, q=100: from the hub a walk returns to
        # its leaf with probability 0.998, but a candidate is accepted
        # with probability about 0.05 per lane, so most steps exhaust the
        # rejection lanes and take the exact draw.
        "extreme": (
            [(0, leaf) for leaf in range(1, 21)],
            1,
            0,
            0.01,
            100.0,
            True,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_step_matches_exact_probabilities(self, case):
        from scipy.stats import chisquare

        edges, prev, cur, p, q, lump = self.CASES[case]
        g = Graph(max(max(e) for e in edges) + 1, edges)
        cfg = RandomWalkConfig(
            walks_per_vertex=60_000, walk_length=3, seed=3,
            mode=WalkMode.NODE2VEC, p=p, q=q,
            start_vertices=np.asarray([prev]),
        )
        walks = generate_walks(g, cfg).walks
        third = walks[walks[:, 1] == cur, 2]
        targets, probs = _exact_second_step(g, prev, cur, p, q)
        observed = np.array([(third == t).sum() for t in targets], dtype=float)
        assert observed.sum() == third.size > 10_000
        if lump:
            back = targets == prev
            observed = np.array([observed[back].sum(), observed[~back].sum()])
            probs = np.array([probs[back].sum(), probs[~back].sum()])
        _, pvalue = chisquare(observed, probs * observed.sum())
        assert pvalue > 1e-3, (
            f"{case}: transitions {observed.tolist()} do not follow the "
            f"node2vec law {np.round(probs * observed.sum(), 1).tolist()}"
        )
