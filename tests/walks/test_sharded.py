"""Walks over a graph store: determinism across layouts, mode support.

The walk engine's promise (see :mod:`repro.walks.engine`): the corpus is
**bitwise-identical** for every shard count, worker count and
partitioning method at a fixed seed, and equal to the in-memory graph's
corpus — shard layout is runtime policy, never model identity.
"""

from __future__ import annotations

import shutil
import tracemalloc

import numpy as np
import pytest

from repro.datasets.synthetic import community_benchmark
from repro.graph.core import EdgeList, Graph
from repro.graph.generators import planted_partition
from repro.graph.store import GraphStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder, use
from repro.pipeline.context import ExecutionContext
from repro.walks.engine import (
    PAD,
    RandomWalkConfig,
    WalkMode,
    generate_walks,
    hash_uniform,
)


@pytest.fixture(scope="module")
def rich():
    """Connected graph with weights, times, and vertex weights."""
    rng = np.random.default_rng(0)
    base = community_benchmark(0.7, n=120, groups=4, inter_edges=60, seed=11)
    src, dst = base.arc_array()
    half = src <= dst
    s, d = src[half], dst[half]
    return Graph(
        base.n,
        EdgeList(
            s,
            d,
            weights=rng.uniform(0.1, 5.0, size=s.size),
            times=rng.uniform(0.0, 100.0, size=s.size),
        ),
        vertex_weights=rng.uniform(0.5, 2.0, size=base.n),
    )


@pytest.fixture(scope="module")
def stores(rich, tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    return {
        s: GraphStore.build(rich, root / f"s{s}", shards=s, seed=3)
        for s in (1, 2, 4)
    }


MODES = [
    RandomWalkConfig(walk_length=12, walks_per_vertex=2, seed=7),
    RandomWalkConfig(
        mode=WalkMode.WEIGHTED, walk_length=12, walks_per_vertex=2, seed=7
    ),
    RandomWalkConfig(
        mode=WalkMode.VERTEX_WEIGHTED, walk_length=12, walks_per_vertex=2, seed=7
    ),
    RandomWalkConfig(
        mode=WalkMode.TEMPORAL,
        walk_length=12,
        walks_per_vertex=2,
        seed=7,
        time_window=40.0,
    ),
]


class TestShardCountInvariance:
    @pytest.mark.parametrize("config", MODES, ids=lambda c: c.mode.value)
    def test_bitwise_equal_across_shard_counts(self, stores, config):
        ref = generate_walks(stores[1], config).walks
        for s in (2, 4):
            got = generate_walks(stores[s], config).walks
            assert np.array_equal(ref, got), f"{config.mode}: {s} shards differ"

    @pytest.mark.parametrize("config", MODES, ids=lambda c: c.mode.value)
    def test_bitwise_equal_across_worker_counts(self, stores, config):
        # One process walks every row; pooled workers split the rows.
        # Both must write the same bytes.
        for shards in (2, 4):
            ref = generate_walks(stores[shards], config).walks
            par = generate_walks(
                stores[shards], config, context=ExecutionContext(workers=3)
            ).walks
            assert np.array_equal(ref, par), f"{shards} shards differ"

    def test_partition_method_does_not_change_corpus(self, rich, tmp_path):
        config = MODES[0]
        corpora = []
        for method in ("bfs", "label_propagation", "contiguous"):
            store = GraphStore.build(
                rich, tmp_path / method, shards=4, method=method, seed=5
            )
            corpora.append(generate_walks(store, config).walks)
        assert np.array_equal(corpora[0], corpora[1])
        assert np.array_equal(corpora[0], corpora[2])

    def test_context_shards_cap_is_scheduling_only(self, stores):
        config = MODES[0]
        ref = generate_walks(stores[4], config).walks
        capped = generate_walks(
            stores[4], config, context=ExecutionContext(workers=3, shards=1)
        ).walks
        assert np.array_equal(ref, capped)


class TestExchange:
    """Pooled row tasks map the store by path, cached per worker."""

    def test_store_rebuilt_at_the_same_path_is_not_walked_stale(self, tmp_path):
        # Pool workers outlive a map; their cached mmaps of the first
        # store must not serve the second one built at the same path.
        path = tmp_path / "store"
        config = MODES[0]

        def build(seed):
            g = community_benchmark(0.7, n=120, groups=4, inter_edges=60, seed=seed)
            return GraphStore.build(g, path, shards=4, seed=3)

        generate_walks(
            build(11), config, context=ExecutionContext(workers=2)
        )
        shutil.rmtree(path)
        rebuilt = build(12)
        serial = generate_walks(rebuilt, config).walks
        pooled = generate_walks(
            rebuilt, config, context=ExecutionContext(workers=2)
        ).walks
        assert np.array_equal(serial, pooled)


class TestMemory:
    def test_peak_heap_stays_within_twice_the_corpus(self, tmp_path):
        g = planted_partition(n=2000, groups=20, alpha=0.1, inter_edges=400, seed=0)
        store = GraphStore.build(g, tmp_path / "store", shards=4, seed=0)
        config = RandomWalkConfig(walks_per_vertex=10, walk_length=40, seed=0)
        tracemalloc.start()
        try:
            walks = generate_walks(store, config).walks
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * walks.nbytes, (
            f"peak {peak / walks.nbytes:.2f}x the corpus's bytes"
        )


class TestCorpusValidity:
    def test_walks_follow_edges_in_original_ids(self, rich, stores):
        walks = generate_walks(stores[4], MODES[0]).walks
        assert walks.shape == (rich.n * 2, 12)
        assert np.array_equal(
            walks[: rich.n, 0], np.arange(rich.n)
        ), "row i must start at original vertex i"
        for row in walks[:: rich.n // 10]:
            for a, b in zip(row[:-1], row[1:]):
                if b == PAD:
                    break
                assert rich.has_edge(int(a), int(b))

    def test_temporal_walks_respect_time_order(self, rich, stores):
        config = MODES[3]
        walks = generate_walks(stores[4], config).walks
        src, dst = rich.arc_array()
        times = rich.edge_times
        lookup: dict[tuple[int, int], list[float]] = {}
        for i in range(src.size):
            lookup.setdefault((int(src[i]), int(dst[i])), []).append(
                float(times[i])
            )
        for row in walks[:: rich.n // 6]:
            t_prev = -np.inf
            for a, b in zip(row[:-1], row[1:]):
                if b == PAD:
                    break
                options = [t for t in lookup[(int(a), int(b))] if t > t_prev]
                assert options, "walk traversed a time-impossible arc"
                t_prev = min(options)  # weakest consistent assumption

    def test_start_vertices_respected(self, stores):
        config = RandomWalkConfig(
            walk_length=6, walks_per_vertex=3, seed=1, start_vertices=[5, 17, 99]
        )
        walks = generate_walks(stores[2], config).walks
        assert walks.shape == (9, 6)
        assert np.array_equal(walks[:, 0], np.tile([5, 17, 99], 3))

    def test_walk_length_one_returns_starts(self, stores):
        config = RandomWalkConfig(walk_length=1, walks_per_vertex=1, seed=1)
        walks = generate_walks(stores[2], config).walks
        assert np.array_equal(walks[:, 0], np.arange(stores[2].n))


class TestValidation:
    def test_node2vec_is_refused(self, stores):
        config = RandomWalkConfig(mode=WalkMode.NODE2VEC, p=2.0, q=0.5, seed=1)
        with pytest.raises(ValueError, match="node2vec"):
            generate_walks(stores[1], config)

    def test_missing_arrays_are_refused(self, tmp_path):
        plain = community_benchmark(0.7, n=30, groups=2, inter_edges=10, seed=1)
        store = GraphStore.build(plain, tmp_path / "plain", shards=2)
        for mode in (WalkMode.WEIGHTED, WalkMode.VERTEX_WEIGHTED, WalkMode.TEMPORAL):
            with pytest.raises(ValueError):
                generate_walks(store, RandomWalkConfig(mode=mode, seed=1))

    def test_start_vertex_out_of_range(self, stores):
        config = RandomWalkConfig(seed=1, start_vertices=[400])
        with pytest.raises(ValueError, match="out of range"):
            generate_walks(stores[1], config)


class TestDispatch:
    def test_store_and_graph_give_the_same_corpus(self, rich, stores):
        # One engine: a store is the in-memory graph's CSR view under a
        # vertex permutation, so both backends walk the same bytes.
        for config in MODES:
            in_memory = generate_walks(rich, config).walks
            for shards in (1, 4):
                from_store = generate_walks(stores[shards], config).walks
                assert np.array_equal(in_memory, from_store), (
                    f"{config.mode.value}: {shards}-shard store differs"
                )


class TestHashUniform:
    def test_deterministic_and_order_free(self):
        w = np.arange(100, dtype=np.int64)
        s = np.full(100, 3, dtype=np.int64)
        a = hash_uniform(12345, w, s)
        b = hash_uniform(12345, w[::-1], s[::-1])[::-1]
        assert np.array_equal(a, b)

    def test_uniform_in_unit_interval(self):
        u = hash_uniform(99, np.arange(10_000), np.zeros(10_000, dtype=np.int64))
        assert u.min() >= 0.0 and u.max() < 1.0
        # Crude uniformity check: decile counts within 20% of expected.
        hist, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
        assert np.all(np.abs(hist - 1000) < 200)

    def test_key_and_lane_decorrelate(self):
        w = np.arange(1000)
        s = np.zeros(1000, dtype=np.int64)
        assert not np.array_equal(hash_uniform(1, w, s), hash_uniform(2, w, s))
        assert not np.array_equal(
            hash_uniform(1, w, s), hash_uniform(1, w, s, lane=1)
        )
