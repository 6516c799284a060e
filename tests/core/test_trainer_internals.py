"""Focused tests of trainer internals: LR schedule, shuffling, batching."""

import numpy as np
import pytest

from repro.core.trainer import TrainConfig, train_embeddings
from repro.walks.corpus import WalkCorpus


class RecordingObjective:
    """Stub objective capturing every batch_step call."""

    def __init__(self, vocab_size, dim):
        self.w_in = np.zeros((vocab_size, dim))
        self.calls: list[tuple[np.ndarray, float]] = []

    @property
    def vectors(self):
        return self.w_in

    def batch_step(self, centers, contexts, lr, rng):
        self.calls.append((centers.copy(), lr))
        return 1.0  # constant loss -> early stop after `patience` epochs


@pytest.fixture
def corpus():
    rng = np.random.default_rng(0)
    walks = rng.integers(0, 10, size=(20, 8))
    return WalkCorpus(walks, num_vertices=10)


def patched_train(monkeypatch, corpus, config):
    """Run train_embeddings with the recording stub objective."""
    import repro.core.trainer as trainer_mod

    recorder = {}

    def fake_build(config, vocab, rng, init_vectors=None):
        obj = RecordingObjective(vocab.size, config.dim)
        recorder["objective"] = obj
        return obj

    monkeypatch.setattr(trainer_mod, "_build_objective", fake_build)
    result = train_embeddings(corpus, config)
    return result, recorder["objective"]


class TestLRSchedule:
    def test_linear_decay_endpoints(self, monkeypatch, corpus):
        cfg = TrainConfig(
            dim=4, epochs=3, batch_size=16, lr=0.1, lr_min=0.01,
            seed=0, early_stop=False,
        )
        _res, obj = patched_train(monkeypatch, corpus, cfg)
        lrs = [lr for _, lr in obj.calls]
        assert np.isclose(lrs[0], 0.1)
        assert np.isclose(lrs[-1], 0.01)
        # Monotone non-increasing.
        assert all(a >= b - 1e-12 for a, b in zip(lrs, lrs[1:]))

    def test_single_batch_uses_initial_lr(self, monkeypatch, corpus):
        cfg = TrainConfig(
            dim=4, epochs=1, batch_size=100000, lr=0.07, seed=0,
            early_stop=False,
        )
        _res, obj = patched_train(monkeypatch, corpus, cfg)
        assert len(obj.calls) == 1
        assert np.isclose(obj.calls[0][1], 0.07)


class TestBatching:
    def test_every_example_seen_once_per_epoch(self, monkeypatch, corpus):
        cfg = TrainConfig(
            dim=4, epochs=1, batch_size=7, seed=0, early_stop=False
        )
        _res, obj = patched_train(monkeypatch, corpus, cfg)
        seen = np.concatenate([c for c, _ in obj.calls])
        expected, _ = corpus.context_arrays(cfg.window)
        assert seen.shape[0] == expected.shape[0]
        np.testing.assert_array_equal(np.sort(seen), np.sort(expected))

    def test_no_shuffle_preserves_order(self, monkeypatch, corpus):
        cfg = TrainConfig(
            dim=4, epochs=1, batch_size=1000000, seed=0,
            early_stop=False, shuffle=False,
        )
        _res, obj = patched_train(monkeypatch, corpus, cfg)
        expected, _ = corpus.context_arrays(cfg.window)
        np.testing.assert_array_equal(obj.calls[0][0], expected)

    def test_one_position_array_shuffled_in_place(self, monkeypatch, corpus):
        """Every epoch steps the same int32 array, shuffled in place, and
        leaves it sorted back for the next."""
        import repro.core.trainer as trainer_mod

        step = trainer_mod.step_batches
        epochs = []

        def recording(objective, walks, positions, *args, **kwargs):
            epochs.append((positions, positions.copy()))
            return step(objective, walks, positions, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "step_batches", recording)
        cfg = TrainConfig(dim=4, epochs=3, batch_size=16, seed=0, early_stop=False)
        train_embeddings(corpus, cfg)
        ordered = corpus.example_positions(cfg.window)
        held = epochs[0][0]
        assert len(epochs) == 3
        assert all(array is held for array, _ in epochs)
        assert held.dtype == np.int32
        np.testing.assert_array_equal(held, ordered)
        orders = [order for _, order in epochs]
        for order in orders:
            np.testing.assert_array_equal(np.sort(order), ordered)
        assert not np.array_equal(orders[0], orders[1])

    def test_constant_loss_triggers_early_stop(self, monkeypatch, corpus):
        cfg = TrainConfig(dim=4, epochs=50, seed=0, tol=1e-6, patience=2)
        res, _obj = patched_train(monkeypatch, corpus, cfg)
        assert res.converged
        assert res.epochs_run == 3  # epoch 1 sets best; 2 stalls follow
