"""Runtime settings travel in ``context=``; ``workers=`` is the one shorthand.

* the call paths are completely warning-free (asserted under
  ``simplefilter("error")``);
* ``workers=`` stays a silent, documented shorthand on ``generate_walks``;
* mixing ``context=`` with the shorthand is a ``TypeError``, and the
  removed per-function ``checkpoint_dir=``/``resume=``/``supervisor=``
  keywords are refused.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.trainer import TrainConfig, train_embeddings
from repro.graph.core import Graph
from repro.pipeline import ExecutionContext
from repro.walks.engine import RandomWalkConfig, generate_walks


@pytest.fixture(scope="module")
def graph():
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


@pytest.fixture(scope="module")
def walk_config():
    return RandomWalkConfig(walks_per_vertex=2, walk_length=6, seed=0)


@pytest.fixture(scope="module")
def train_config():
    return TrainConfig(dim=4, epochs=1, seed=0)


class TestModernPathIsWarningFree:
    def test_generate_walks(self, graph, walk_config, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate_walks(graph, walk_config)
            generate_walks(graph, walk_config, workers=2)
            generate_walks(
                graph,
                walk_config,
                context=ExecutionContext(checkpoint_dir=tmp_path),
            )

    def test_train_embeddings(self, graph, walk_config, train_config, tmp_path):
        corpus = generate_walks(graph, walk_config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_embeddings(corpus, train_config)
            train_embeddings(
                corpus,
                train_config,
                context=ExecutionContext(checkpoint_dir=tmp_path),
            )

    def test_v2v_fit_with_context(self, graph, tmp_path):
        from repro import V2V, V2VConfig

        cfg = V2VConfig(dim=4, epochs=1, walks_per_vertex=2, walk_length=6, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            V2V(cfg).fit(graph, context=ExecutionContext(checkpoint_dir=tmp_path))


class TestConflictingSettings:
    def test_generate_walks_context_plus_legacy(self, graph, walk_config):
        with pytest.raises(TypeError, match="not both"):
            generate_walks(
                graph,
                walk_config,
                context=ExecutionContext(),
                workers=2,
            )

    def test_train_embeddings_context_plus_legacy(
        self, graph, walk_config, train_config, tmp_path
    ):
        corpus = generate_walks(graph, walk_config)
        with pytest.raises(TypeError, match="resume"):
            train_embeddings(
                corpus,
                train_config,
                context=ExecutionContext(),
                resume=True,
            )

    def test_v2v_fit_context_plus_kwargs(self, graph, tmp_path):
        from repro import V2V, V2VConfig

        cfg = V2VConfig(dim=4, epochs=1, walks_per_vertex=2, walk_length=6, seed=0)
        with pytest.raises(TypeError, match="not both"):
            V2V(cfg).fit(
                graph, context=ExecutionContext(), checkpoint_dir=tmp_path
            )
