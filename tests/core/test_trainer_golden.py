"""Golden determinism for every in-process training path.

``tests/pipeline/test_golden.py`` pins fused CBOW through ``V2V.fit``.
This table pins ``train_embeddings`` itself on one fixed corpus, once
per training path: each kernel and output layer, subsampling, no
shuffle, early stop, the streaming source, warm start, and the
``train_hogwild(workers=1)`` forwarder. A digest covers the trained
vectors and the per-epoch loss history, so any change to the RNG call
order, the batch order, the LR schedule or the float ops fails here.

If a change *intentionally* alters the numerics, regenerate the table
and commit it with the change::

    REPRO_GOLDEN_PRINT=1 PYTHONPATH=src python -m pytest \
        tests/core/test_trainer_golden.py -s

and paste the printed digests into ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.core.trainer import TrainConfig, train_embeddings
from repro.graph.generators import planted_partition
from repro.walks.engine import RandomWalkConfig, generate_walks

BASE = dict(dim=8, epochs=3, batch_size=64, seed=7, early_stop=False)

# name -> (TrainConfig overrides, warm start?, through train_hogwild?)
CASES = {
    "fused": ({}, False, False),
    "reference": ({"kernel": "reference"}, False, False),
    "skipgram": ({"objective": "skipgram"}, False, False),
    "hierarchical": ({"output_layer": "hierarchical"}, False, False),
    "subsample": ({"subsample": 1e-2}, False, False),
    "no_shuffle": ({"shuffle": False}, False, False),
    "early_stop": (
        {"epochs": 30, "early_stop": True, "tol": 0.2, "patience": 1},
        False,
        False,
    ),
    "streaming": ({"streaming": True, "stream_rows": 16}, False, False),
    "streaming_subsample": (
        {"streaming": True, "stream_rows": 16, "subsample": 1e-2},
        False,
        False,
    ),
    "streaming_no_shuffle": (
        {"streaming": True, "stream_rows": 16, "shuffle": False},
        False,
        False,
    ),
    "streaming_reference": (
        {"streaming": True, "stream_rows": 7, "kernel": "reference"},
        False,
        False,
    ),
    "warm_start": ({}, True, False),
    "hogwild_workers1": ({"workers": 1}, False, True),
}

GOLDEN = {
    "fused": (
        "bb543e65b0925676acc6f0468c7a1420f154f0c473062ab88a9ecb71b338e19a"
    ),
    "reference": (
        "bfb116d816db56d3dd5d4a87cd2f3ada28af8a9b8a0d37112dfa72d649af10fe"
    ),
    "skipgram": (
        "b9829c48d80b76825185f727bd8fdbf3f503f5b890151913aec0bedb53de52f7"
    ),
    "hierarchical": (
        "75a63eda502f7249126daf78304785e018e4894df97851043a27fe8b4854cf8f"
    ),
    "subsample": (
        "702558856f0fc8542728ddc22f4526f9b0fd2d45aac70bec8754f9f84c364f1f"
    ),
    "no_shuffle": (
        "0ca47329f7340799b0b19c5855e9fd5088ffdea33395e6b28a638b6af0bf478c"
    ),
    "early_stop": (
        "ca95ca4323f8b4d80450fedf3ebbf6e02c7421400eb0d0105d0c2bf8a23e1b6f"
    ),
    "streaming": (
        "5f3c5dad6036dc187712572e755703f12e33e1930fb7284994527b5d9d13ef51"
    ),
    "streaming_subsample": (
        "8f93f97971da643d575013fd098efb88752bd74c31dff09cebdc784a6ecd6e84"
    ),
    "streaming_no_shuffle": (
        "0ca47329f7340799b0b19c5855e9fd5088ffdea33395e6b28a638b6af0bf478c"
    ),
    "streaming_reference": (
        "416802bb70b0f2a6acb0066a036f774a72772421cd1d65025043bace43a0397a"
    ),
    "warm_start": (
        "c8c844d556002fac4d7293ef8c03b1bb9a92bacf9c34192d5210694feca463c7"
    ),
    "hogwild_workers1": (
        "bb543e65b0925676acc6f0468c7a1420f154f0c473062ab88a9ecb71b338e19a"
    ),
}


@pytest.fixture(scope="module")
def corpus():
    graph = planted_partition(n=60, groups=3, alpha=0.7, inter_edges=10, seed=2)
    return generate_walks(
        graph, RandomWalkConfig(walks_per_vertex=3, walk_length=15, seed=4)
    )


def _train(corpus, name):
    overrides, warm, via_hogwild = CASES[name]
    config = TrainConfig(**{**BASE, **overrides})
    init = None
    if warm:
        init = np.random.default_rng(1).normal(
            scale=0.1, size=(corpus.num_vertices, config.dim)
        )
    if via_hogwild:
        from repro.parallel.hogwild import train_hogwild

        return train_hogwild(corpus, config, init_vectors=init)
    return train_embeddings(corpus, config, init_vectors=init)


def _digest(result) -> str:
    h = hashlib.sha256(np.ascontiguousarray(result.vectors).tobytes())
    h.update(np.asarray(result.loss_history, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_training_path_is_bitwise_stable(corpus, name):
    digest = _digest(_train(corpus, name))
    if os.environ.get("REPRO_GOLDEN_PRINT"):
        print(f'\n    "{name}": "{digest}",')
    assert digest == GOLDEN[name], (
        f"fixed-seed training path {name!r} drifted from its committed "
        "golden digest; if the numeric change is intentional, regenerate "
        "with REPRO_GOLDEN_PRINT=1 (see module docstring)"
    )


def test_early_stop_case_stops_early(corpus):
    result = _train(corpus, "early_stop")
    assert result.converged
    assert result.epochs_run < CASES["early_stop"][0]["epochs"]


def test_streaming_without_shuffle_equals_dense_without_shuffle(corpus):
    config = TrainConfig(**BASE, shuffle=False)
    dense = train_embeddings(corpus, config)
    streamed = train_embeddings(
        corpus, TrainConfig(**BASE, shuffle=False, streaming=True, stream_rows=5)
    )
    np.testing.assert_array_equal(dense.vectors, streamed.vectors)
    assert dense.loss_history == streamed.loss_history
