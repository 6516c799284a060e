"""Quality guard: the fused f32 kernel must match the reference on Table I.

``kernel="auto"`` trains serial CBOW + negative sampling on the fused
float32 kernel, so its embeddings must detect the planted communities as
well as the float64 reference kernel does. The setting is the fast-scale
Table I graph at the hard end of the paper's α sweep (α = 0.1), with the
fixed epoch count of the benchmark's ``table1-detect`` workload.
"""

import numpy as np

from repro.core.trainer import TrainConfig, train_embeddings
from repro.graph.generators import planted_partition
from repro.ml import KMeans, pairwise_f1
from repro.walks.engine import RandomWalkConfig, generate_walks

SEEDS = (0, 1, 2)
#: Mean pairwise F1 the fused kernel may lose against the reference.
MARGIN = 0.02


def _mean_f1(kernel: str) -> float:
    scores = []
    for seed in SEEDS:
        graph = planted_partition(
            n=400, groups=8, alpha=0.1, inter_edges=80, seed=seed
        )
        corpus = generate_walks(
            graph, RandomWalkConfig(walks_per_vertex=6, walk_length=30, seed=seed)
        )
        config = TrainConfig(
            dim=10, epochs=10, early_stop=False, workers=1, seed=seed, kernel=kernel
        )
        vectors = train_embeddings(corpus, config).vectors
        labels = KMeans(8, n_init=10, seed=seed).fit(vectors).labels
        scores.append(pairwise_f1(graph.vertex_labels("community"), labels))
    return float(np.mean(scores))


def test_fused_kernel_detects_communities_as_well_as_reference():
    reference = _mean_f1("reference")
    fused = _mean_f1("fused")
    assert fused >= reference - MARGIN, (
        f"fused mean pairwise F1 {fused:.4f} fell more than {MARGIN} below "
        f"the reference kernel's {reference:.4f}"
    )
