"""Concrete stages for the V2V flow: walks → train → downstream tasks.

``WalkStage`` and ``TrainStage`` wrap the two heavy engines; they do
*not* opt into pipeline-level output caching because their engines
already resume incrementally (chunk-wise for walks, epoch-wise for
training) — a mid-stage kill loses at most one wave/epoch, which is
strictly better than stage-boundary granularity. The same engines also
poll the ambient cancel scope the runner activates, so a SIGTERM or
deadline expiry during either heavy stage raises
:class:`~repro.resilience.lifecycle.RunInterrupted` at the next
checkpointable unit with a final snapshot already on disk.

``DetectStage``/``PredictStage``/``LayoutStage`` are the paper's three
applications as thin, cacheable stages: each is cheap to recompute but
opts into output caching (``cache_output``) so a resumed run skips them
when inputs and settings are unchanged — and so future downstream stages
can be registered the same way without touching the runner.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.graph.core import Graph
from repro.obs.recorder import current_recorder
from repro.pipeline.context import ExecutionContext
from repro.pipeline.stage import PipelineStage
from repro.walks.corpus import WalkCorpus
from repro.walks.engine import RandomWalkConfig, generate_walks

if TYPE_CHECKING:
    from repro.core.trainer import TrainConfig

__all__ = [
    "WalkStage",
    "TrainStage",
    "DetectStage",
    "PredictStage",
    "LayoutStage",
]

#: Subdirectory of the run's checkpoint root where the walk engine keeps
#: its chunk checkpoints — the layout ``V2V.fit`` has always used
#: (``<dir>/walks/walks-0000.ckpt.npz`` ...).
WALKS_SCOPE = "walks"


def _digest(arr: np.ndarray) -> str:
    """Content hash of an array, for fingerprinting stage inputs."""
    data = np.ascontiguousarray(arr)
    return hashlib.sha256(data.tobytes()).hexdigest()


def train_embeddings(*args, **kwargs):
    """:func:`repro.core.trainer.train_embeddings`, imported on first use."""
    from repro.core.trainer import train_embeddings

    return train_embeddings(*args, **kwargs)


def _vectors_of(value: Any) -> np.ndarray:
    """Accept an EmbeddingResult, a fitted V2V, or a bare matrix."""
    return np.asarray(getattr(value, "vectors", value))


class WalkStage(PipelineStage):
    """Generate the walk corpus (paper Section II-A) from a graph view.

    The input is an in-memory :class:`Graph` or a memory-mapped
    :class:`repro.graph.store.GraphStore`; both run the one walk engine
    and obey its determinism contract (see :mod:`repro.walks.engine`),
    checkpointed chunks (``checkpoint_chunks``) included.
    """

    name = "walks"

    def __init__(
        self,
        config: RandomWalkConfig | None = None,
        *,
        checkpoint_chunks: int | None = None,
    ) -> None:
        self.config = config or RandomWalkConfig()
        self.checkpoint_chunks = checkpoint_chunks

    def run(self, ctx: ExecutionContext, graph: Graph) -> WalkCorpus:
        return generate_walks(
            graph,
            self.config,
            context=ctx.scoped(WALKS_SCOPE),
            checkpoint_chunks=self.checkpoint_chunks,
        )


class TrainStage(PipelineStage):
    """Train embeddings (paper Section II-B) on a walk corpus."""

    name = "train"

    def __init__(
        self,
        config: TrainConfig | None = None,
        *,
        init_vectors: np.ndarray | None = None,
        epoch_callback=None,
    ) -> None:
        from repro.core.trainer import TrainConfig

        self.config = config or TrainConfig()
        self.init_vectors = init_vectors
        self.epoch_callback = epoch_callback

    def run(self, ctx: ExecutionContext, corpus: WalkCorpus):
        # Unscoped on purpose: the trainer snapshot lives directly at
        # <checkpoint_dir>/trainer.ckpt.npz, the layout V2V.fit pins.
        return train_embeddings(
            corpus,
            self.config,
            context=ctx,
            init_vectors=self.init_vectors,
            epoch_callback=self.epoch_callback,
        )


class DetectStage(PipelineStage):
    """K-means community detection over the embedding (Section III)."""

    name = "detect"
    cache_output = True

    def __init__(self, k: int, *, n_init: int = 100, seed: int | None = None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.n_init = n_init
        self.seed = seed

    def fingerprint(self, ctx: ExecutionContext, value: Any):
        vectors = _vectors_of(value)
        return {
            "stage": self.name,
            "k": self.k,
            "n_init": self.n_init,
            "seed": self.seed,
            "vectors": _digest(vectors),
        }

    def run(self, ctx: ExecutionContext, value: Any) -> np.ndarray:
        from repro.ml.kmeans import KMeans

        vectors = _vectors_of(value)
        rec = current_recorder()
        with rec.span("detect.cluster", k=self.k, n_init=self.n_init):
            km = KMeans(self.k, n_init=self.n_init, seed=self.seed)
            result = km.fit(vectors)
        membership = result.labels.astype(np.int64)
        if rec.enabled:
            rec.set("detect.inertia", float(result.inertia))
            rec.event(
                "detect.done",
                num_communities=int(membership.max()) + 1 if membership.size else 0,
                inertia=round(float(result.inertia), 6),
            )
        return membership


class PredictStage(PipelineStage):
    """Cross-validated k-NN label prediction (Section IV); returns accuracy."""

    name = "predict"
    cache_output = True

    def __init__(
        self,
        labels: np.ndarray,
        *,
        k: int = 3,
        folds: int = 10,
        repeats: int = 1,
        seed: int | None = None,
    ) -> None:
        self.labels = np.asarray(labels)
        self.k = k
        self.folds = folds
        self.repeats = repeats
        self.seed = seed

    def fingerprint(self, ctx: ExecutionContext, value: Any):
        vectors = _vectors_of(value)
        return {
            "stage": self.name,
            "k": self.k,
            "folds": self.folds,
            "repeats": self.repeats,
            "seed": self.seed,
            "labels": _digest(self.labels),
            "vectors": _digest(vectors),
        }

    def run(self, ctx: ExecutionContext, value: Any) -> float:
        from repro.ml.cross_validation import cross_validate_knn

        vectors = _vectors_of(value)
        if self.labels.shape[0] != vectors.shape[0]:
            raise ValueError(
                f"label count {self.labels.shape[0]} does not match "
                f"vector count {vectors.shape[0]}"
            )
        return float(
            cross_validate_knn(
                vectors,
                self.labels,
                k=self.k,
                n_splits=self.folds,
                repeats=self.repeats,
                seed=self.seed,
            )
        )

    def restore(self, arrays: dict[str, np.ndarray]) -> float:
        return float(arrays["output"])


class LayoutStage(PipelineStage):
    """ForceAtlas positions for visualization (Section V); graph in."""

    name = "layout"
    cache_output = True

    def __init__(self, *, iterations: int = 200, seed: int | None = None):
        self.iterations = iterations
        self.seed = seed

    def fingerprint(self, ctx: ExecutionContext, graph: Graph):
        return {
            "stage": self.name,
            "iterations": self.iterations,
            "seed": self.seed,
            "n": int(graph.n),
            "num_edges": int(graph.num_edges),
            "directed": bool(graph.directed),
            "edges": _digest(graph.indptr) + _digest(graph.indices),
        }

    def run(self, ctx: ExecutionContext, graph: Graph) -> np.ndarray:
        from repro.viz.forceatlas import force_atlas_layout

        layout = force_atlas_layout(
            graph, iterations=self.iterations, seed=self.seed
        )
        return np.asarray(layout.positions)
