"""repro — full reproduction of *V2V: Vector Embedding of a Graph and
Applications* (Nguyen & Tirthapura, IPDPSW 2018).

Public API highlights::

    from repro import V2V, V2VConfig, Graph
    from repro import ExecutionContext, Pipeline
    from repro.graph import planted_partition
    from repro.community import V2VCommunityDetector, cnm_communities
    from repro.ml import KMeans, KNNClassifier, PCA

See README.md for the architecture overview, docs/architecture.md for
the staged pipeline runtime, and DESIGN.md for the experiment index.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core.model": ("V2V", "V2VConfig"),
        "graph.core": ("Graph", "EdgeList"),
        "walks.corpus": ("WalkCorpus",),
        "walks.engine": ("WalkMode", "RandomWalkConfig", "generate_walks"),
        "core.trainer": ("TrainConfig", "EmbeddingResult", "train_embeddings"),
        "pipeline.context": ("ExecutionContext",),
        "pipeline.runner": ("Pipeline", "PipelineResult"),
        "pipeline.stages": (
            "WalkStage",
            "TrainStage",
            "DetectStage",
            "PredictStage",
            "LayoutStage",
        ),
    },
)
__all__.append("__version__")
