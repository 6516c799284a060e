"""Tests for k-fold cross validation, and the oracle batched k-NN must match.

``cross_validate_knn`` scores every fold from one blocked distance pass.
The oracle below is the loop it replaced, kept verbatim: one
``KNNClassifier`` fitted per fold. ``TestOracleParity`` holds the batched
function to it bit for bit on data without distance ties.
"""

import tracemalloc

import numpy as np
import pytest

from repro.ml import cross_validation as cv_module
from repro.ml.cross_validation import KFold, cross_validate_knn
from repro.ml.knn import KNNClassifier
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder, use


def per_fold_oracle(x, y, *, k=3, metric="cosine", n_splits=10, repeats=1, seed=None):
    """Mean accuracy of a classifier fitted per fold, per repeat."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    seeds = np.random.SeedSequence(seed).spawn(repeats)
    accuracies = []
    for rep_seed in seeds:
        folds = KFold(n_splits, seed=int(rep_seed.generate_state(1)[0]))
        for train, test in folds.split(x.shape[0]):
            clf = KNNClassifier(k=k, metric=metric).fit(x[train], y[train])
            accuracies.append(clf.score(x[test], y[test]))
    return float(np.mean(accuracies))


class _Incs(Recorder):
    """A recorder that also keeps every ``inc`` call, in order."""

    def __init__(self) -> None:
        super().__init__(MetricsRegistry())
        self.calls: list[tuple[str, float]] = []

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.calls.append((name, amount))
        super().inc(name, amount)

    def fallback_rows(self) -> list[float]:
        return [a for name, a in self.calls if name == "predict.knn_fallback_rows"]


def assert_matches_oracle(x, y, **kwargs) -> _Incs:
    """The batched float equals the oracle's bit for bit; returns the
    recorder the batched run wrote to."""
    rec = _Incs()
    with use(rec):
        got = cross_validate_knn(x, y, **kwargs)
    want = per_fold_oracle(x, y, **kwargs)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)
    return rec


class TestKFold:
    def test_folds_partition_everything(self):
        kf = KFold(5, seed=0)
        seen = []
        for train, test in kf.split(23):
            seen.extend(test.tolist())
            assert set(train.tolist()) | set(test.tolist()) == set(range(23))
            assert not set(train.tolist()) & set(test.tolist())
        assert sorted(seen) == list(range(23))

    def test_fold_sizes_balanced(self):
        sizes = [len(test) for _, test in KFold(10, seed=1).split(105)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 105

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(10).split(5))

    def test_n_splits_validated(self):
        with pytest.raises(ValueError):
            KFold(1)

    def test_deterministic(self):
        a = [t.tolist() for _, t in KFold(4, seed=9).split(20)]
        b = [t.tolist() for _, t in KFold(4, seed=9).split(20)]
        assert a == b

    def test_shuffled(self):
        a = [t.tolist() for _, t in KFold(4, seed=1).split(20)]
        b = [t.tolist() for _, t in KFold(4, seed=2).split(20)]
        assert a != b


class TestCrossValidateKNN:
    def test_separable_data_high_accuracy(self, rng):
        x = np.vstack(
            [rng.normal(0, 0.2, (40, 3)), rng.normal(5, 0.2, (40, 3))]
        )
        y = np.repeat([0, 1], 40)
        acc = cross_validate_knn(x, y, k=3, metric="euclidean", n_splits=5, seed=0)
        assert acc > 0.95

    def test_random_labels_near_chance(self, rng):
        x = rng.random((100, 3))
        y = rng.integers(0, 2, 100)
        acc = cross_validate_knn(x, y, k=3, n_splits=5, seed=0)
        assert acc < 0.75

    def test_repeats_average(self, rng):
        x = rng.random((50, 2))
        y = rng.integers(0, 2, 50)
        acc = cross_validate_knn(x, y, k=1, n_splits=5, repeats=3, seed=0)
        assert 0.0 <= acc <= 1.0

    def test_repeats_validated(self, rng):
        with pytest.raises(ValueError):
            cross_validate_knn(rng.random((20, 2)), np.zeros(20), repeats=0)

    def test_deterministic(self, rng):
        x = rng.random((40, 2))
        y = rng.integers(0, 2, 40)
        a = cross_validate_knn(x, y, seed=4, n_splits=4)
        b = cross_validate_knn(x, y, seed=4, n_splits=4)
        assert a == b


class TestInputChecks:
    """The checks ``KNNClassifier.fit`` and its constructor made per fold."""

    @pytest.mark.parametrize(
        "x, y, kwargs, match",
        [
            (np.zeros(20), np.zeros(20), {}, "2-D"),
            (np.zeros((20, 2)), np.zeros(19), {}, "one label per row"),
            (np.zeros((20, 2)), np.zeros((20, 1)), {}, "one label per row"),
            (np.zeros((0, 2)), np.zeros(0), {}, "non-empty"),
            (np.zeros((20, 2)), np.zeros(20), {"k": 0}, "k must be >= 1"),
            (np.zeros((20, 2)), np.zeros(20), {"metric": "manhattan"}, "metric"),
            (np.zeros((20, 2)), np.zeros(20), {"n_splits": 1}, "n_splits"),
            (np.zeros((5, 2)), np.zeros(5), {"n_splits": 10}, "cannot split"),
        ],
    )
    def test_rejected(self, x, y, kwargs, match):
        with pytest.raises(ValueError, match=match):
            cross_validate_knn(x, y, **kwargs)

    @pytest.mark.parametrize("seed", range(3))
    def test_k_capped_at_the_training_set(self, seed):
        # 13 points in folds of 5, 4 and 4 train on 8 or 9 points, so
        # k = 10 votes with 8 or 9, as k = 9 does.
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(13, 3)), rng.integers(0, 4, 13)
        assert_matches_oracle(x, y, k=10, n_splits=3, repeats=2, seed=1)
        assert cross_validate_knn(x, y, k=10, n_splits=3, repeats=2, seed=1) == (
            cross_validate_knn(x, y, k=9, n_splits=3, repeats=2, seed=1)
        )


class TestOracleParity:
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("n_splits", [2, 3, 7, 10])
    @pytest.mark.parametrize("k", range(1, 11))
    def test_random_data(self, metric, n_splits, k):
        rng = np.random.default_rng(1000 * k + n_splits)
        x = rng.normal(size=(53, 4))
        y = rng.integers(0, 4, 53)
        assert_matches_oracle(
            x, y, k=k, metric=metric, n_splits=n_splits, repeats=3, seed=k
        )

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_forced_fallback(self, monkeypatch, metric):
        """With no spare candidates each row keeps only its k nearest, itself
        among them, so every query takes the exact masked pass."""
        monkeypatch.setattr(cv_module, "_SPARE", 0)
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(41, 3)), rng.integers(0, 3, 41)
        rec = assert_matches_oracle(
            x, y, k=3, metric=metric, n_splits=5, repeats=4, seed=3
        )
        assert rec.fallback_rows() == [41] * 4

    def test_one_row_blocks(self, monkeypatch, rng):
        monkeypatch.setattr(cv_module, "_BLOCK_BYTES", 1)
        x, y = rng.normal(size=(30, 5)), rng.integers(0, 3, 30)
        assert_matches_oracle(x, y, k=4, n_splits=3, repeats=2, seed=0)

    def test_string_labels(self, rng):
        x = rng.normal(size=(40, 3))
        y = np.array(["fr", "de", "it"])[rng.integers(0, 3, 40)]
        assert_matches_oracle(x, y, k=3, n_splits=4, repeats=2, seed=5)

    def test_trained_flight_vectors(self):
        """Trained vectors lie in a narrow cone, unlike the random data."""
        from repro.core.trainer import TrainConfig, train_embeddings
        from repro.datasets.openflights import OpenFlightsSpec, synthetic_openflights
        from repro.walks.engine import RandomWalkConfig, generate_walks

        g = synthetic_openflights(OpenFlightsSpec(num_airports=300, seed=0))
        corpus = generate_walks(
            g, RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=0)
        )
        vectors = train_embeddings(
            corpus, TrainConfig(dim=16, epochs=2, early_stop=False, seed=0)
        ).vectors
        labels = g.vertex_labels("country")
        for metric in ("cosine", "euclidean"):
            assert_matches_oracle(
                vectors, labels, k=3, metric=metric, n_splits=10, repeats=3, seed=0
            )


class TestVote:
    def test_exact_distance_tie_goes_to_the_lower_class(self):
        """Random data never reaches this rule; the classifier's does."""
        x = np.array([[1.0], [-1.0], [5.0]])
        y = np.array([1, 0, 2])
        clf = KNNClassifier(k=2, metric="euclidean").fit(x, y)
        assert clf.predict(np.zeros((1, 1)))[0] == 0
        winner = cv_module._vote(
            np.array([[1, 0]]), np.array([[1.0, 1.0]]), np.array([[True, True]])
        )
        assert winner.tolist() == [0]


class TestFallbackCounter:
    def test_one_call_per_repeat(self, rng):
        x = np.vstack([rng.normal(0, 0.2, (30, 3)), rng.normal(5, 0.2, (30, 3))])
        y = np.repeat([0, 1], 30)
        rec = _Incs()
        with use(rec):
            cross_validate_knn(x, y, k=3, n_splits=10, repeats=5, seed=0)
        assert rec.fallback_rows() == [0] * 5
        counters = rec.registry.snapshot()["counters"]
        assert counters["predict.knn_fallback_rows"] == 0

    def test_two_folds_at_large_k_fall_back(self):
        # Half of each query's candidates share its fold at 2 folds, so
        # k = 10 of 26 candidates leaves some rows short.
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(200, 2)), rng.integers(0, 2, 200)
        rec = assert_matches_oracle(x, y, k=10, n_splits=2, repeats=3, seed=0)
        assert len(rec.fallback_rows()) == 3
        assert sum(rec.fallback_rows()) > 0


class TestMemory:
    def test_no_n_by_n_matrix(self):
        n = 3000
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(n, 16)), rng.integers(0, 10, n)
        tracemalloc.start()
        try:
            cross_validate_knn(x, y, k=3, n_splits=10, repeats=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        square = n * n * 8
        assert peak < square / 10, f"peak {peak / square:.3f}x one n x n matrix"
