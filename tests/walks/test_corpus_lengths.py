"""The walk engine hands its corpus over without a validation pass.

``WalkCorpus._trusted`` skips the range and padding-suffix checks and
counts lengths only on rows that end in ``PAD``. That is sound only if
every engine-built matrix is one the validating constructor accepts,
with the same lengths. These tests pin that invariant on every walk
mode, both graph backends, in-process and pooled runs and a checkpointed
run resumed from disk, and pin the walk stage's heap peak against the
int32 matrix.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.graph.core import EdgeList, Graph
from repro.graph.generators import planted_partition
from repro.graph.store import GraphStore
from repro.pipeline.context import ExecutionContext
from repro.walks.corpus import PAD, WALK_DTYPE, WalkCorpus
from repro.walks.engine import RandomWalkConfig, WalkMode, generate_walks

MODES = {
    "uniform": RandomWalkConfig(walks_per_vertex=3, walk_length=15, seed=2),
    "weighted": RandomWalkConfig(
        mode=WalkMode.WEIGHTED, walks_per_vertex=3, walk_length=15, seed=2
    ),
    # A tight window strands most walks early: many rows end in PAD.
    "temporal": RandomWalkConfig(
        mode=WalkMode.TEMPORAL,
        walks_per_vertex=3,
        walk_length=15,
        seed=2,
        time_window=5.0,
    ),
    "node2vec": RandomWalkConfig(
        mode=WalkMode.NODE2VEC,
        walks_per_vertex=3,
        walk_length=15,
        seed=2,
        p=0.5,
        q=2.0,
    ),
}


@pytest.fixture(scope="module")
def graph():
    """Directed, weighted and timed, with sink vertices (dead ends)."""
    rng = np.random.default_rng(4)
    n = 90
    src = rng.integers(0, n - 10, size=600)
    dst = rng.integers(0, n, size=600)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return Graph(
        n,
        EdgeList(
            src,
            dst,
            weights=rng.uniform(0.1, 5.0, size=src.size),
            times=rng.uniform(0.0, 100.0, size=src.size),
        ),
        directed=True,
    )


@pytest.fixture(scope="module")
def store(graph, tmp_path_factory):
    return GraphStore.build(
        graph, tmp_path_factory.mktemp("store") / "s", shards=3, seed=1
    )


def _assert_lengths_match_validated(corpus: WalkCorpus) -> None:
    assert corpus.walks.dtype == WALK_DTYPE
    assert corpus.walks.flags.c_contiguous
    checked = WalkCorpus(corpus.walks, num_vertices=corpus.num_vertices)
    np.testing.assert_array_equal(corpus.lengths, checked.lengths)
    assert corpus.lengths.dtype == checked.lengths.dtype


# A graph store refuses node2vec walks (its rows are not target-sorted).
CASES = [
    (mode, backend)
    for mode in MODES
    for backend in ("graph", "store")
    if not (mode == "node2vec" and backend == "store")
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode,backend", CASES)
def test_engine_lengths_equal_validated_lengths(graph, store, mode, backend, workers):
    view = graph if backend == "graph" else store
    corpus = generate_walks(
        view, MODES[mode], context=ExecutionContext(workers=workers)
    )
    # The cheap count must have had pad-ended rows to count.
    assert np.any(corpus.walks[:, -1] == PAD)
    _assert_lengths_match_validated(corpus)


@pytest.mark.parametrize("backend", ["graph", "store"])
def test_resumed_checkpoint_lengths_equal_validated_lengths(
    graph, store, backend, tmp_path
):
    view = graph if backend == "graph" else store
    config = MODES["temporal"]
    generate_walks(
        view,
        config,
        context=ExecutionContext(checkpoint_dir=tmp_path),
        checkpoint_chunks=3,
    )
    resumed = generate_walks(
        view,
        config,
        context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
        checkpoint_chunks=3,
    )
    assert np.any(resumed.walks[:, -1] == PAD)
    _assert_lengths_match_validated(resumed)


def test_walk_stage_heap_stays_near_the_int32_matrix():
    g = planted_partition(n=20_000, groups=20, alpha=0.1, inter_edges=4000, seed=0)
    config = RandomWalkConfig(walks_per_vertex=10, walk_length=40, seed=0)
    tracemalloc.start()
    try:
        walks = generate_walks(g, config).walks
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix_bytes = WALK_DTYPE.itemsize * walks.size
    assert peak <= 1.5 * matrix_bytes, (
        f"peak {peak / matrix_bytes:.2f}x the int32 walk matrix's bytes"
    )
