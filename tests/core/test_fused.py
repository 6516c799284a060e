"""Tests for the fused float32 CBOW negative-sampling kernel."""

import numpy as np
import pytest

from repro.core._math import MAX_EXP
from repro.core.cbow import CBOWNegativeSampling
from repro.core.fused import FusedCBOWNegativeSampling
from repro.core.negative import NegativeSampler
from repro.core.trainer import TrainConfig, resolve_kernel, train_embeddings
from repro.walks.corpus import WalkCorpus


def _uniform_dist(v):
    return np.full(v, 1.0 / v)


def _batch(rng, vocab, batch=64, width=4):
    centers = rng.integers(0, vocab, batch).astype(np.int64)
    contexts = rng.integers(0, vocab, (batch, width)).astype(np.int64)
    # Punch PAD holes into some rows (but never empty a row).
    holes = rng.random((batch, width)) < 0.3
    holes[:, 0] = False
    contexts[holes] = -1
    return centers, contexts


def _corpus(rng, num_vertices=12, walks=80, length=10):
    rows = rng.integers(0, num_vertices, (walks, length)).astype(np.int64)
    return WalkCorpus(rows, num_vertices=num_vertices)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            FusedCBOWNegativeSampling(0, 5, np.empty(0))
        with pytest.raises(ValueError):
            FusedCBOWNegativeSampling(4, 0, _uniform_dist(4))
        with pytest.raises(ValueError):
            FusedCBOWNegativeSampling(4, 5, _uniform_dist(4), negatives=0)
        with pytest.raises(ValueError):
            FusedCBOWNegativeSampling(4, 5, _uniform_dist(3))

    def test_shapes_and_dtypes(self):
        m = FusedCBOWNegativeSampling(10, 6, _uniform_dist(10))
        assert m.w_in.shape == (10, 6) and m.w_in.dtype == np.float32
        assert m.w_out.shape == (10, 6) and m.w_out.dtype == np.float32

    def test_vectors_property_is_float64(self):
        m = FusedCBOWNegativeSampling(10, 6, _uniform_dist(10))
        v = m.vectors
        assert v.dtype == np.float64
        np.testing.assert_allclose(v, m.w_in, rtol=1e-6)

    def test_init_matches_reference_draws(self):
        """Same rng → same init as the reference kernel, cast to f32."""
        ref = CBOWNegativeSampling(
            10,
            6,
            NegativeSampler(_uniform_dist(10)),
            rng=np.random.default_rng(3),
        )
        fused = FusedCBOWNegativeSampling(
            10, 6, _uniform_dist(10), rng=np.random.default_rng(3)
        )
        np.testing.assert_array_equal(
            fused.w_in, ref.w_in.astype(np.float32)
        )


class TestBatchStep:
    def test_deterministic_at_fixed_seed(self):
        vocab, dim = 30, 8
        runs = []
        for _ in range(2):
            m = FusedCBOWNegativeSampling(
                vocab, dim, _uniform_dist(vocab), rng=np.random.default_rng(0)
            )
            rng = np.random.default_rng(7)
            data_rng = np.random.default_rng(1)
            losses = [
                m.batch_step(*_batch(data_rng, vocab), 0.05, rng)
                for _ in range(5)
            ]
            runs.append((losses, m.w_in.copy(), m.w_out.copy()))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][2], runs[1][2])

    def test_loss_decreases_under_training(self):
        vocab, dim = 10, 8
        m = FusedCBOWNegativeSampling(
            vocab, dim, _uniform_dist(vocab), rng=np.random.default_rng(0)
        )
        rng = np.random.default_rng(5)
        # A fixed, structured batch: centers predictable from contexts.
        centers = np.arange(vocab, dtype=np.int64).repeat(6)
        contexts = np.stack(
            [(centers + k) % vocab for k in (1, 2, 3)], axis=1
        )
        first = m.batch_step(centers, contexts, 0.1, rng)
        for _ in range(200):
            last = m.batch_step(centers, contexts, 0.1, rng)
        assert last < first

    def test_empty_context_row_rejected(self):
        m = FusedCBOWNegativeSampling(8, 4, _uniform_dist(8))
        centers = np.zeros(2, dtype=np.int64)
        contexts = np.asarray([[1, 2], [-1, -1]], dtype=np.int64)
        with pytest.raises(ValueError):
            m.batch_step(centers, contexts, 0.1, np.random.default_rng(0))

    def test_loss_tracks_reference_kernel(self):
        """Same data, independent draws: the two kernels should land in
        the same loss ballpark after identical training schedules."""
        vocab, dim = 16, 8
        dist = _uniform_dist(vocab)
        ref = CBOWNegativeSampling(
            vocab, dim, NegativeSampler(dist), rng=np.random.default_rng(0)
        )
        fused = FusedCBOWNegativeSampling(
            vocab, dim, dist, rng=np.random.default_rng(0)
        )
        data_rng = np.random.default_rng(2)
        batches = [_batch(data_rng, vocab, batch=128) for _ in range(40)]
        r1 = np.random.default_rng(1)
        r2 = np.random.default_rng(1)
        ref_loss = [ref.batch_step(c, x, 0.05, r1) for c, x in batches][-1]
        fused_loss = [fused.batch_step(c, x, 0.05, r2) for c, x in batches][-1]
        assert abs(ref_loss - fused_loss) < 0.35 * max(ref_loss, fused_loss)


class _FixedNoise:
    """Stands in for the alias table: hands out preset negatives."""

    def __init__(self, negs):
        self.negs = negs

    def sample(self, start, count, rng, *, shape):
        assert shape == self.negs.shape
        return self.negs


def _oracle_step(w_in, w_out, centers, contexts, negs, lr):
    """One CBOW negative-sampling step as a plain float64 loop.

    Every read sees the pre-step weights and every update accumulates,
    which is what the batched kernel promises.
    """
    w_in, w_out = w_in.astype(np.float64), w_out.astype(np.float64)
    d_in, d_out = np.zeros_like(w_in), np.zeros_like(w_out)
    loss = 0.0
    for b, center in enumerate(centers):
        ctx = [c for c in contexts[b] if c >= 0]
        h = sum(w_in[c] for c in ctx) / len(ctx)
        grad_h = np.zeros_like(h)
        for k, target in enumerate([center, *negs[b]]):
            label = 1.0 if k == 0 else 0.0
            score = float(np.clip(w_out[target] @ h, -MAX_EXP, MAX_EXP))
            pred = 1.0 / (1.0 + np.exp(-score))
            loss -= np.log(pred if label else 1.0 - pred)
            g = (label - pred) * lr
            grad_h += g * w_out[target]
            d_out[target] += g * h
        for c in ctx:
            d_in[c] += grad_h / len(ctx)
    return w_in + d_in, w_out + d_out, loss / len(centers)


class TestOracleParity:
    def test_one_step_matches_float64_loop(self):
        vocab, dim, lr = 9, 5, 0.3
        m = FusedCBOWNegativeSampling(
            vocab,
            dim,
            _uniform_dist(vocab),
            negatives=3,
            rng=np.random.default_rng(0),
        )
        m.w_out = np.random.default_rng(1).normal(size=(vocab, dim)).astype(
            np.float32
        )
        centers = np.asarray([4, 4, 2, 7], dtype=np.int64)  # 4 in two rows
        contexts = np.asarray(
            [
                [1, -1, 3, -1],  # pad slots
                [3, 3, 3, 5],  # one vertex three times in a row
                [0, 8, -1, 6],
                [7, -1, -1, -1],  # context equal to its center
            ],
            dtype=np.int64,
        )
        negs = np.asarray(
            [[4, 2, 2], [0, 1, 4], [2, 8, 4], [5, 7, 4]],  # negative == center
            dtype=np.int64,
        )
        m._noise = _FixedNoise(negs)
        want_in, want_out, want_loss = _oracle_step(
            m.w_in, m.w_out, centers, contexts, negs, lr
        )
        loss = m.batch_step(centers, contexts, lr, np.random.default_rng(2))
        assert loss == pytest.approx(want_loss, rel=1e-5)
        np.testing.assert_allclose(m.w_in, want_in, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(m.w_out, want_out, rtol=1e-5, atol=1e-6)


class TestKernelSelection:
    def test_auto_resolves_by_objective_and_output_layer_only(self):
        for workers in (1, 2, 4):
            assert resolve_kernel(TrainConfig(workers=workers)) == "fused"
        assert resolve_kernel(TrainConfig(objective="skipgram")) == "reference"
        assert (
            resolve_kernel(TrainConfig(output_layer="hierarchical"))
            == "reference"
        )

    def test_auto_never_fused_outside_cbow_negative(self):
        assert (
            resolve_kernel(TrainConfig(workers=4, objective="skipgram"))
            == "reference"
        )
        assert (
            resolve_kernel(TrainConfig(workers=4, output_layer="hierarchical"))
            == "reference"
        )

    def test_explicit_kernel_passes_through(self):
        assert resolve_kernel(TrainConfig(kernel="fused")) == "fused"
        assert (
            resolve_kernel(TrainConfig(workers=4, kernel="reference"))
            == "reference"
        )

    def test_fused_requires_cbow_negative(self):
        with pytest.raises(ValueError):
            TrainConfig(kernel="fused", objective="skipgram")
        with pytest.raises(ValueError):
            TrainConfig(kernel="fused", output_layer="hierarchical")
        with pytest.raises(ValueError):
            TrainConfig(kernel="bogus")


class TestTrainerIntegration:
    def test_serial_fused_run_trains(self, rng):
        corpus = _corpus(rng)
        res = train_embeddings(
            corpus, TrainConfig(dim=7, epochs=3, seed=0, kernel="fused")
        )
        assert res.vectors.shape == (12, 7)
        assert res.vectors.dtype == np.float64
        assert np.all(np.isfinite(res.vectors))
        assert len(res.loss_history) == res.epochs_run

    def test_warm_start_cast_to_kernel_dtype(self, rng):
        corpus = _corpus(rng)
        init = np.random.default_rng(9).random((12, 7))
        res = train_embeddings(
            corpus,
            TrainConfig(dim=7, epochs=1, seed=0, kernel="fused"),
            init_vectors=init,
        )
        assert np.all(np.isfinite(res.vectors))

    def test_auto_at_workers1_is_bitwise_fused(self, rng):
        corpus = _corpus(rng)
        auto = train_embeddings(corpus, TrainConfig(dim=6, epochs=2, seed=4))
        fused = train_embeddings(
            corpus, TrainConfig(dim=6, epochs=2, seed=4, kernel="fused")
        )
        np.testing.assert_array_equal(auto.vectors, fused.vectors)

    def test_serial_runs_are_bitwise_equal(self, rng):
        corpus = _corpus(rng)
        config = TrainConfig(dim=6, epochs=2, seed=4)
        first = train_embeddings(corpus, config)
        second = train_embeddings(corpus, config)
        np.testing.assert_array_equal(first.vectors, second.vectors)
        assert first.loss_history == second.loss_history
