"""Tests for the high-level V2V estimator."""

import numpy as np
import pytest

from repro.core.model import V2V, V2VConfig
from repro.graph.generators import planted_partition
from repro.walks.engine import WalkMode


@pytest.fixture(scope="module")
def fitted():
    g = planted_partition(n=60, groups=3, alpha=0.6, inter_edges=10, seed=0)
    cfg = V2VConfig(dim=12, walks_per_vertex=5, walk_length=15, epochs=4, seed=0)
    return g, V2V(cfg).fit(g)


class TestConfig:
    def test_defaults(self):
        c = V2VConfig()
        assert c.window == 5
        assert c.walk_mode is WalkMode.UNIFORM

    def test_with_dim(self):
        c = V2VConfig(dim=10, seed=3).with_dim(99)
        assert c.dim == 99
        assert c.seed == 3

    def test_subconfigs_consistent(self):
        c = V2VConfig(dim=33, window=4, walks_per_vertex=7, seed=5)
        assert c.walk_config().walks_per_vertex == 7
        assert c.walk_config().seed == 5
        assert c.train_config().dim == 33
        assert c.train_config().window == 4


class TestFit:
    def test_vectors_shape(self, fitted):
        g, model = fitted
        assert model.vectors.shape == (60, 12)
        assert model.is_fitted

    def test_unfitted_raises(self):
        m = V2V()
        assert not m.is_fitted
        with pytest.raises(RuntimeError):
            _ = m.vectors
        with pytest.raises(RuntimeError):
            _ = m.corpus

    def test_corpus_retained(self, fitted):
        _g, model = fitted
        assert model.corpus.num_walks == 60 * 5

    def test_fit_corpus_reuse(self, fitted):
        """Training different dims on the same corpus (paper Section V)."""
        _g, model = fitted
        other = V2V(V2VConfig(dim=6, epochs=2, seed=0)).fit_corpus(model.corpus)
        assert other.vectors.shape == (60, 6)

    def test_reproducible(self):
        g = planted_partition(n=40, groups=2, alpha=0.5, inter_edges=5, seed=1)
        cfg = V2VConfig(dim=8, walks_per_vertex=3, walk_length=10, epochs=2, seed=7)
        a = V2V(cfg).fit(g)
        b = V2V(cfg).fit(g)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_embedding_for_bounds(self, fitted):
        _g, model = fitted
        assert model.embedding_for(0).shape == (12,)
        with pytest.raises(IndexError):
            model.embedding_for(60)
        with pytest.raises(IndexError):
            model.embedding_for(-1)


class TestSimilarity:
    def test_self_similarity_one(self, fitted):
        _g, model = fitted
        assert np.isclose(model.similarity(3, 3), 1.0)

    def test_symmetric(self, fitted):
        _g, model = fitted
        assert np.isclose(model.similarity(1, 2), model.similarity(2, 1))

    def test_range(self, fitted):
        _g, model = fitted
        for u, v in [(0, 1), (0, 30), (10, 55)]:
            assert -1.0 - 1e-9 <= model.similarity(u, v) <= 1.0 + 1e-9

    def test_most_similar_excludes_self(self, fitted):
        _g, model = fitted
        top = model.most_similar(5, topn=10)
        assert len(top) == 10
        assert all(v != 5 for v, _ in top)
        sims = [s for _, s in top]
        assert sims == sorted(sims, reverse=True)

    def test_most_similar_prefers_own_community(self, fitted):
        g, model = fitted
        truth = g.vertex_labels("community")
        hits = 0
        for v in range(0, 60, 10):
            top = model.most_similar(v, topn=5)
            hits += sum(truth[u] == truth[v] for u, _ in top)
        assert hits >= 20  # of 30 possible

    def test_topn_clamped(self, fitted):
        _g, model = fitted
        assert len(model.most_similar(0, topn=500)) == 59

    def test_zero_vector_similarity(self):
        m = V2V()
        from repro.core.trainer import EmbeddingResult, TrainConfig

        vecs = np.zeros((3, 4))
        vecs[1, 0] = 1.0
        m._result = EmbeddingResult(
            vectors=vecs, loss_history=[1.0], epochs_run=1,
            train_seconds=0.0, converged=False, config=TrainConfig(),
        )
        assert m.similarity(0, 1) == 0.0


class TestPersistence:
    def test_save_load_roundtrip(self, fitted, tmp_path):
        _g, model = fitted
        p = tmp_path / "model.npz"
        model.save(p)
        loaded = V2V.load(p)
        np.testing.assert_array_equal(loaded.vectors, model.vectors)
        assert loaded.result.epochs_run == model.result.epochs_run

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            V2V().save(tmp_path / "x.npz")

    def test_load_restores_embedded_config(self, fitted, tmp_path):
        _g, model = fitted
        p = tmp_path / "model.npz"
        model.save(p)
        loaded = V2V.load(p)
        assert loaded.config == model.config

    def test_load_explicit_config_wins(self, fitted, tmp_path):
        _g, model = fitted
        p = tmp_path / "model.npz"
        model.save(p)
        override = V2VConfig(dim=12, seed=99)
        assert V2V.load(p, config=override).config is override

    def test_load_legacy_file_without_config(self, fitted, tmp_path):
        """Files saved before config embedding still load (default config)."""
        _g, model = fitted
        p = tmp_path / "legacy.npz"
        result = model.result
        np.savez_compressed(
            p,
            vectors=np.asarray(result.vectors),
            loss_history=np.asarray(result.loss_history),
            epochs_run=np.asarray(result.epochs_run),
            converged=np.asarray(int(result.converged)),
        )
        loaded = V2V.load(p)
        np.testing.assert_array_equal(loaded.vectors, model.vectors)
        assert loaded.config == V2VConfig()

    def test_load_file_with_supervision_keys(self, fitted, tmp_path):
        """Model files saved while V2VConfig still carried the worker
        supervision fields, or the streaming batch source's, embed them
        in ``config_json``; they load, and the retired keys are
        dropped."""
        import io
        import json

        from repro.resilience.checkpoint import integrity_record

        _g, model = fitted
        result = model.result
        for name, retired in [
            ("supervised", {"worker_deadline": 7.0, "max_respawns": 1}),
            ("streaming", {"streaming": True, "stream_rows": 64}),
        ]:
            config = {**model.config.to_dict(), **retired}
            arrays = {
                "vectors": np.asarray(result.vectors),
                "loss_history": np.asarray(result.loss_history),
                "epochs_run": np.asarray(result.epochs_run),
                "converged": np.asarray(int(result.converged)),
                "config_json": np.frombuffer(
                    json.dumps(config, sort_keys=True).encode(), np.uint8
                ),
            }
            record = integrity_record(arrays)
            buf = io.BytesIO()
            np.savez_compressed(
                buf,
                **arrays,
                __integrity__=np.frombuffer(
                    json.dumps(record).encode(), np.uint8
                ),
            )
            p = tmp_path / f"{name}.npz"
            p.write_bytes(buf.getvalue())
            loaded = V2V.load(p)
            np.testing.assert_array_equal(loaded.vectors, model.vectors)
            assert loaded.config == model.config


class TestConfigSerialization:
    def test_json_roundtrip(self):
        cfg = V2VConfig(
            dim=7,
            walk_mode=WalkMode.NODE2VEC,
            p=0.5,
            q=2.0,
            seed=4,
        )
        assert V2VConfig.from_json(cfg.to_json()) == cfg

    def test_to_dict_excludes_observability(self):
        # Telemetry is runtime policy: it rides on ExecutionContext, and
        # the config has no field for it.
        from repro.obs.recorder import ObsConfig

        assert "observability" not in V2VConfig().to_dict()
        with pytest.raises(TypeError, match="observability"):
            V2VConfig(observability=ObsConfig(enabled=True))

    def test_walk_mode_serializes_as_string(self):
        data = V2VConfig(walk_mode=WalkMode.TEMPORAL, time_window=2.0).to_dict()
        assert data["walk_mode"] == "temporal"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown V2VConfig keys: bogus"):
            V2VConfig.from_dict({"dim": 5, "bogus": 1})

    def test_canonical_ordering(self):
        # sort_keys makes the encoding canonical: equal configs, equal text
        assert V2VConfig(seed=1).to_json() == V2VConfig(seed=1).to_json()
