"""Tests for multi-process walk generation."""

import os
import threading
import time

import numpy as np
import pytest

from repro.graph.generators import planted_partition
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder, use
from repro.parallel.persistent import _CANCEL_GRACE
from repro.parallel.pool import parallel_map
from repro.parallel.shm import SHM_AVAILABLE
from repro.resilience.lifecycle import CancellationToken, RunInterrupted, cancel_scope
from repro.walks.engine import RandomWalkConfig, WalkMode, generate_walks
from tests.parallel.test_shm import shm_entries


@pytest.fixture(scope="module")
def graph():
    return planted_partition(n=60, groups=3, alpha=0.5, inter_edges=10, seed=0)


class TestParallelWalks:
    def test_same_shape_as_serial(self, graph):
        cfg = RandomWalkConfig(walks_per_vertex=4, walk_length=12, seed=0)
        serial = generate_walks(graph, cfg, workers=1)
        par = generate_walks(graph, cfg, workers=3)
        assert par.walks.shape == serial.walks.shape
        assert par.num_vertices == serial.num_vertices

    def test_walks_valid(self, graph):
        cfg = RandomWalkConfig(walks_per_vertex=3, walk_length=10, seed=0)
        corpus = generate_walks(graph, cfg, workers=4)
        arcs = set(graph.arcs())
        for walk in corpus.sentences():
            for u, v in zip(walk[:-1], walk[1:]):
                assert (int(u), int(v)) in arcs

    def test_reproducible_same_workers(self, graph):
        cfg = RandomWalkConfig(walks_per_vertex=3, walk_length=10, seed=42)
        a = generate_walks(graph, cfg, workers=2)
        b = generate_walks(graph, cfg, workers=2)
        np.testing.assert_array_equal(a.walks, b.walks)

    def test_start_vertices_respected(self, graph):
        cfg = RandomWalkConfig(
            walks_per_vertex=5,
            walk_length=6,
            seed=0,
            start_vertices=np.asarray([0, 1]),
        )
        corpus = generate_walks(graph, cfg, workers=2)
        assert corpus.num_walks == 10
        assert set(corpus.walks[:, 0].tolist()) == {0, 1}

    def test_weighted_mode_parallel(self):
        from repro.graph.core import Graph

        g = Graph(4, [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 2.0), (3, 0, 1.0)])
        cfg = RandomWalkConfig(
            walks_per_vertex=3, walk_length=8, seed=0, mode=WalkMode.WEIGHTED
        )
        corpus = generate_walks(g, cfg, workers=2)
        assert corpus.num_walks == 12

    def test_coverage_comparable(self, graph):
        cfg = RandomWalkConfig(walks_per_vertex=4, walk_length=15, seed=0)
        par = generate_walks(graph, cfg, workers=3)
        assert par.coverage() == 1.0


def _rich_graph(directed: bool):
    """Weights, times and vertex weights; the directed variant has sinks."""
    from repro.graph.core import EdgeList, Graph

    rng = np.random.default_rng(3)
    base = planted_partition(n=80, groups=4, alpha=0.6, inter_edges=20, seed=1)
    src, dst = base.arc_array()
    keep = src < dst
    s, d = src[keep], dst[keep]
    if directed:  # drop every out-arc of vertices 0..9: dead ends
        keep = s >= 10
        s, d = s[keep], d[keep]
    return Graph(
        base.n,
        EdgeList(
            s,
            d,
            weights=rng.uniform(0.1, 5.0, size=s.size),
            times=rng.uniform(0.0, 100.0, size=s.size),
        ),
        directed=directed,
        vertex_weights=rng.uniform(0.5, 2.0, size=base.n),
    )


POOLED_MODES = {
    "uniform": {},
    "weighted": {"mode": WalkMode.WEIGHTED},
    "vertex_weighted": {"mode": WalkMode.VERTEX_WEIGHTED},
    "temporal": {"mode": WalkMode.TEMPORAL, "time_window": 30.0},
    "node2vec": {"mode": WalkMode.NODE2VEC, "p": 0.25, "q": 4.0},
}


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "sinks"])
@pytest.mark.parametrize("mode", sorted(POOLED_MODES))
def test_pooled_corpus_equals_serial(mode, directed):
    """Worker count is scheduling only: pooled rows are the serial bytes."""
    g = _rich_graph(directed)
    cfg = RandomWalkConfig(
        walks_per_vertex=3, walk_length=12, seed=9, **POOLED_MODES[mode]
    )
    serial = generate_walks(g, cfg).walks
    if directed:
        assert (serial == -1).any(), "the sink graph should end some walks"
    for workers in (2, 3):
        pooled = generate_walks(g, cfg, workers=workers).walks
        np.testing.assert_array_equal(serial, pooled)


def test_pooled_out_of_range_start_raises_before_any_task(graph):
    cfg = RandomWalkConfig(seed=0, start_vertices=np.asarray([0, graph.n]))
    with pytest.raises(ValueError, match="out of range"):
        generate_walks(graph, cfg, workers=2)


def _pid(_):
    return os.getpid()


@pytest.mark.skipif(not SHM_AVAILABLE, reason="platform has no shared memory")
class TestCooperativeCancel:
    def test_pooled_walk_tasks_return_mid_map_without_a_kill(self, graph):
        """A cancel mid-map reaches the pooled walk tasks, which stop at
        their next hop: the map raises the run's reason well inside the
        pool's cancel grace, nothing is respawned, and the workers that
        walked serve the next map (the grace path would have SIGKILLed
        them)."""
        # Two tasks of 20 walks × 100k hops, seconds apiece (the hops are
        # overhead-bound), so a cancel 0.3 s in lands while both step.
        config = RandomWalkConfig(
            walks_per_vertex=1,
            walk_length=100_000,
            seed=5,
            start_vertices=np.arange(40) % graph.n,
        )
        token = CancellationToken()
        cancelled_at: list[float] = []

        def cancel() -> None:
            cancelled_at.append(time.monotonic())
            token.cancel("signal")

        shm_before = shm_entries()
        walkers = set(parallel_map(_pid, [0, 1], workers=2))
        registry = MetricsRegistry()
        timer = threading.Timer(0.3, cancel)
        with use(Recorder(registry)), cancel_scope(token):
            timer.start()
            try:
                with pytest.raises(RunInterrupted) as raised:
                    generate_walks(graph, config, workers=2)
                raised_at = time.monotonic()
            finally:
                timer.cancel()
        counters = registry.snapshot()["counters"]
        assert raised.value.reason == "signal"
        assert counters["supervisor.cancelled"] == 1  # landed inside the map
        assert raised_at - cancelled_at[0] < _CANCEL_GRACE
        assert counters.get("supervisor.respawns", 0) == 0
        assert set(parallel_map(_pid, [0, 1], workers=2)) == walkers
        assert shm_entries() == shm_before
