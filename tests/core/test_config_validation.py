"""Fail-fast validation of the end-to-end V2VConfig."""

import pytest

from repro import V2VConfig, WalkMode


class TestV2VConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"window": 0},
            {"walks_per_vertex": 0},
            {"walk_length": 0},
            {"epochs": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"negatives": 0},
            {"objective": "glove"},
            {"output_layer": "softmax"},
            {"objective": "skipgram", "output_layer": "hierarchical"},
            {"p": 0.0, "walk_mode": WalkMode.NODE2VEC},
            {"q": -1.0, "walk_mode": WalkMode.NODE2VEC},
            {"p": 2.0},  # p/q without node2vec mode
            {"time_window": 5.0},  # window without temporal mode
            {"time_window": -1.0, "walk_mode": WalkMode.TEMPORAL},
            {"patience": 0},
            {"tol": -0.1},
        ],
    )
    def test_invalid_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            V2VConfig(**kwargs)

    def test_valid_defaults(self):
        cfg = V2VConfig()
        assert cfg.walk_config().walks_per_vertex == cfg.walks_per_vertex
        assert cfg.train_config().dim == cfg.dim

    def test_with_dim_revalidates(self):
        cfg = V2VConfig(dim=10)
        with pytest.raises(ValueError):
            cfg.with_dim(0)

    def test_node2vec_roundtrip(self):
        cfg = V2VConfig(walk_mode=WalkMode.NODE2VEC, p=0.5, q=2.0)
        wc = cfg.walk_config()
        assert wc.p == 0.5 and wc.q == 2.0
