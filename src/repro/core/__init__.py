"""V2V embedding core: the paper's primary contribution.

Pipeline: walk corpus -> vocabulary/frequency statistics -> CBOW (or
SkipGram) trained with negative sampling or hierarchical softmax -> one
dense vector per vertex. Everything is from-scratch numpy with vectorized
minibatch SGD (no per-token Python loops in the training path).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "model": ("V2V", "V2VConfig"),
        "trainer": ("TrainConfig", "EmbeddingResult", "train_embeddings"),
        "vocab": ("VertexVocab",),
        "negative": ("NegativeSampler",),
        "huffman": ("HuffmanCoding", "build_huffman"),
        "cbow": ("CBOWNegativeSampling", "CBOWHierarchicalSoftmax"),
        "skipgram": ("SkipGramNegativeSampling",),
        "selection": (
            "select_dimension",
            "select_walk_budget",
            "neighborhood_overlap",
        ),
    },
)
