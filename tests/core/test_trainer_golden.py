"""Golden determinism for every in-process training path.

``tests/pipeline/test_golden.py`` pins fused CBOW through ``V2V.fit``.
This table pins ``train_embeddings`` itself on one fixed corpus, once
per training path: each kernel and output layer, subsampling, no
shuffle, early stop and warm start. A digest covers the trained
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

# name -> (TrainConfig overrides, warm start?)
CASES = {
    "fused": ({}, False),
    "reference": ({"kernel": "reference"}, False),
    "skipgram": ({"objective": "skipgram"}, False),
    "hierarchical": ({"output_layer": "hierarchical"}, False),
    "subsample": ({"subsample": 1e-2}, False),
    "no_shuffle": ({"shuffle": False}, False),
    "early_stop": (
        {"epochs": 30, "early_stop": True, "tol": 0.2, "patience": 1},
        False,
    ),
    "warm_start": ({}, True),
}

GOLDEN = {
    "fused": (
        "553ff2e156bb712cd05668810199bffdede9be763bb39f28eadbcf41c18ce93b"
    ),
    "reference": (
        "ca361a03f5a07cf48f874708d365adfa7ee8b8b25cf66b13fc7067ff7780d789"
    ),
    "skipgram": (
        "b7ed29f161fd8c5a5adc8eb0df588c292cac27037d47e962615006fe8aff23a0"
    ),
    "hierarchical": (
        "7c970107432454e37c38a5b3e1f9ebb5af5ad2939daea42390e948acf4abb6e5"
    ),
    "subsample": (
        "1a54b5f289d7fdce5a0bed263d0a9b9d3f66d59b5490fe40cd516950966c4faf"
    ),
    "no_shuffle": (
        "23aee3bda601a4ee72117b1f40aefcf4672a1897922bcb8d0d63f2948b26ef23"
    ),
    "early_stop": (
        "955ae1bb38a802af8690f8fde7dfb2c541352f677de6cdb58767518e4778998f"
    ),
    "warm_start": (
        "17da090ec1d5688e4f65b9ca35b38dd7965781f2e96023b08ea4bb5ae3e2a388"
    ),
}


@pytest.fixture(scope="module")
def corpus():
    graph = planted_partition(n=60, groups=3, alpha=0.7, inter_edges=10, seed=2)
    return generate_walks(
        graph, RandomWalkConfig(walks_per_vertex=3, walk_length=15, seed=4)
    )


def _train(corpus, name):
    overrides, warm = CASES[name]
    config = TrainConfig(**{**BASE, **overrides})
    init = None
    if warm:
        init = np.random.default_rng(1).normal(
            scale=0.1, size=(corpus.num_vertices, config.dim)
        )
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

