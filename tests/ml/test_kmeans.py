"""Tests for k-means clustering, and the oracle batched restarts must match.

``fit`` runs its restarts in blocks. The oracle below is the loop it
replaced, kept verbatim: one restart at a time, each drawing its init from
the shared generator and then running Lloyd alone. ``TestOracleParity``
holds ``fit`` to it bit for bit (labels, centers, inertia, and every
restart's inertia and iteration count).
"""

import numpy as np
import pytest

from repro.ml import kmeans as kmeans_module
from repro.ml.kmeans import KMeans, _block_distances, _kmeanspp_init
from repro.ml.metrics import adjusted_rand_index
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder, use


# ----------------------------------------------------------------------
# The sequential oracle
# ----------------------------------------------------------------------
def squared_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n × k) squared euclidean distances, clipped at 0 for float drift."""
    x_sq = np.einsum("ij,ij->i", x, x)[:, None]
    c_sq = np.einsum("ij,ij->i", centers, centers)[None, :]
    d2 = x_sq - 2.0 * (x @ centers.T) + c_sq
    np.maximum(d2, 0.0, out=d2)
    return d2


def kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii): D² sampling."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = x[first]
    d2 = np.einsum("ij,ij->i", x - centers[0], x - centers[0])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining points coincide with a center: pick uniformly.
            choice = int(rng.integers(0, n))
        else:
            choice = int(np.searchsorted(np.cumsum(d2), rng.random() * total))
            choice = min(choice, n - 1)
        centers[i] = x[choice]
        new_d2 = np.einsum("ij,ij->i", x - centers[i], x - centers[i])
        np.minimum(d2, new_d2, out=d2)
    return centers


def lloyd(km: KMeans, x: np.ndarray, rng: np.random.Generator) -> tuple:
    """One restart: (labels, centers, inertia, iterations, reseeded)."""
    n = x.shape[0]
    if km.init == "k-means++":
        centers = kmeanspp_init(x, km.k, rng)
    else:
        centers = x[rng.choice(n, size=km.k, replace=False)].copy()
    labels = np.zeros(n, dtype=np.int64)
    reseeded = False
    for iteration in range(1, km.max_iter + 1):
        d2 = squared_distances(x, centers)
        labels = d2.argmin(axis=1)
        new_centers = np.zeros_like(centers)
        counts = np.bincount(labels, minlength=km.k).astype(np.float64)
        np.add.at(new_centers, labels, x)
        empty = counts == 0
        if np.any(empty):
            # Re-seed empty clusters at the points farthest from their
            # center — standard fix that keeps k clusters alive.
            reseeded = True
            far = np.argsort(-d2[np.arange(n), labels])
            for j, c in enumerate(np.flatnonzero(empty)):
                new_centers[c] = x[far[j % n]]
                counts[c] = 1.0
        new_centers /= counts[:, None]
        shift = float(np.linalg.norm(new_centers - centers))
        scale = float(np.linalg.norm(centers)) or 1.0
        centers = new_centers
        if shift / scale < km.tol:
            break
    d2 = squared_distances(x, centers)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, centers, inertia, iteration, reseeded


def sequential_restarts(km: KMeans, x: np.ndarray) -> list[tuple]:
    """Every restart of ``km.fit(x)``, run one after another."""
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    rng = np.random.default_rng(km.seed)
    return [lloyd(km, x, rng) for _ in range(km.n_init)]


class _Tape(Recorder):
    """A recorder that also keeps every observation, in order."""

    def __init__(self) -> None:
        super().__init__(MetricsRegistry())
        self.tape: list[tuple[str, float]] = []

    def observe(self, name: str, value: float) -> None:
        self.tape.append((name, value))
        super().observe(name, value)

    def observed(self, name: str) -> list[float]:
        return [value for key, value in self.tape if key == name]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_fit_matches_oracle(km: KMeans, x: np.ndarray) -> list[tuple]:
    """``km.fit(x)`` equals the sequential oracle bit for bit; returns the
    oracle's restarts for further checks."""
    tape = _Tape()
    with use(tape):
        got = km.fit(x)
    runs = sequential_restarts(km, x)
    inertias = [run[2] for run in runs]
    labels, centers, inertia, iterations, _ = runs[inertias.index(min(inertias))]
    assert got.labels.dtype == labels.dtype
    np.testing.assert_array_equal(got.labels, labels)
    assert _bits(got.centers) == _bits(centers)
    assert _bits(got.inertia) == _bits(inertia)
    assert got.iterations == iterations
    assert got.restarts == km.n_init
    assert _bits(tape.observed("kmeans.restart_inertia")) == _bits(inertias)
    assert tape.observed("kmeans.restart_iterations") == [run[3] for run in runs]
    return runs


def blobs(rng, centers, n_per=30, scale=0.1):
    pts, labels = [], []
    for i, c in enumerate(centers):
        pts.append(np.asarray(c) + rng.normal(scale=scale, size=(n_per, len(c))))
        labels += [i] * n_per
    return np.vstack(pts), np.asarray(labels)


def _distances(x, centers):
    """``_block_distances`` for a stack of center sets."""
    x_sq = np.einsum("ij,ij->i", x, x)[:, None].repeat(centers.shape[1], axis=1)
    return _block_distances(x, x_sq, centers)


class TestSquaredDistances:
    def test_matches_naive(self, rng):
        x = rng.random((10, 3))
        c = rng.random((2, 4, 3))
        d2 = _distances(x, c)
        naive = ((x[None, :, None, :] - c[:, None, :, :]) ** 2).sum(axis=3)
        np.testing.assert_allclose(d2, naive, atol=1e-10)

    def test_non_negative(self, rng):
        x = rng.random((50, 2)) * 1000
        assert np.all(_distances(x, np.stack([x[:3], x[3:6]])) >= 0)


class TestKMeansPP:
    def test_centers_are_data_points(self, rng):
        x = rng.random((20, 2))
        centers = _kmeanspp_init(x, 5, rng)
        for c in centers:
            assert np.any(np.all(np.isclose(x, c), axis=1))

    def test_duplicate_points_handled(self, rng):
        x = np.zeros((10, 2))
        centers = _kmeanspp_init(x, 3, rng)
        assert centers.shape == (3, 2)

    def test_spreads_centers(self, rng):
        x, _ = blobs(rng, [(0, 0), (10, 10), (20, 0)], n_per=20)
        centers = _kmeanspp_init(x, 3, rng)
        d = ((centers[:, None] - centers[None, :]) ** 2).sum(-1)
        iu = np.triu_indices(3, 1)
        assert d[iu].min() > 25  # no two seeds in the same blob


class TestKMeans:
    def test_recovers_blobs(self, rng):
        x, truth = blobs(rng, [(0, 0), (5, 5), (-5, 5)])
        result = KMeans(3, n_init=5, seed=0).fit(x)
        assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_inertia_is_wcss(self, rng):
        x, _ = blobs(rng, [(0, 0), (5, 5)])
        result = KMeans(2, n_init=3, seed=0).fit(x)
        wcss = sum(
            ((x[result.labels == j] - result.centers[j]) ** 2).sum()
            for j in range(2)
        )
        assert np.isclose(result.inertia, wcss)

    def test_more_restarts_never_worse(self, rng):
        x = rng.random((100, 4))
        one = KMeans(8, n_init=1, seed=0).fit(x).inertia
        many = KMeans(8, n_init=20, seed=0).fit(x).inertia
        assert many <= one + 1e-9

    def test_k_one(self, rng):
        x = rng.random((10, 3))
        result = KMeans(1, n_init=1, seed=0).fit(x)
        assert np.all(result.labels == 0)
        np.testing.assert_allclose(result.centers[0], x.mean(axis=0))

    def test_k_equals_n(self, rng):
        x = rng.random((5, 2))
        result = KMeans(5, n_init=2, seed=0).fit(x)
        assert sorted(result.labels.tolist()) == [0, 1, 2, 3, 4]
        assert result.inertia < 1e-12

    def test_k_larger_than_n_rejected(self, rng):
        with pytest.raises(ValueError):
            KMeans(10).fit(rng.random((5, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            KMeans(0)
        with pytest.raises(ValueError):
            KMeans(2, n_init=0)
        with pytest.raises(ValueError):
            KMeans(2, max_iter=0)
        with pytest.raises(ValueError):
            KMeans(2, init="bogus")
        with pytest.raises(ValueError):
            KMeans(2).fit(np.zeros(5))

    def test_random_init_works(self, rng):
        x, truth = blobs(rng, [(0, 0), (8, 8)])
        result = KMeans(2, n_init=5, init="random", seed=0).fit(x)
        assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_deterministic_given_seed(self, rng):
        x = rng.random((60, 3))
        a = KMeans(4, n_init=3, seed=5).fit(x)
        b = KMeans(4, n_init=3, seed=5).fit(x)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_fit_predict(self, rng):
        x, _ = blobs(rng, [(0, 0), (9, 9)])
        labels = KMeans(2, n_init=2, seed=0).fit_predict(x)
        assert labels.shape == (60,)

    def test_empty_cluster_reseeded(self):
        # Adversarial: duplicate points force empty clusters in Lloyd.
        x = np.vstack([np.zeros((5, 2)), np.ones((5, 2)) * 10])
        result = KMeans(3, n_init=1, seed=1).fit(x)
        assert result.labels.shape == (10,)
        # All 3 clusters exist or degenerate gracefully (labels valid).
        assert result.labels.max() < 3

    def test_labels_match_nearest_center(self, rng):
        x = rng.random((80, 3))
        result = KMeans(5, n_init=2, seed=0).fit(x)
        d2 = squared_distances(x, result.centers)
        np.testing.assert_array_equal(result.labels, d2.argmin(axis=1))


def _blocks_of(monkeypatch, restarts: int, x: np.ndarray, k: int) -> None:
    """Make ``fit`` run Lloyd on blocks of ``restarts`` restarts."""
    monkeypatch.setattr(kmeans_module, "_SCORE_BYTES", 8 * x.shape[0] * k * restarts)


# Four distinct points, the origin repeated: k-means++ runs out of points
# with positive D² after four centers, and random inits pick duplicates.
GRID = np.array([[0, 0]] * 6 + [[1, 0]] * 3 + [[0, 1]] * 3 + [[5, 5]], dtype=float)


class TestOracleParity:
    @pytest.mark.parametrize("init", ["k-means++", "random"])
    def test_both_inits(self, rng, init):
        x, _ = blobs(rng, [(0, 0, 0), (4, 4, 0), (-4, 4, 1)], scale=1.5)
        assert_fit_matches_oracle(KMeans(3, n_init=9, init=init, seed=7), x)

    def test_duplicate_points_reach_the_uniform_init_branch(self):
        runs = assert_fit_matches_oracle(KMeans(5, n_init=6, seed=0), GRID)
        assert all(run[4] for run in runs)  # the duplicate fifth center empties

    def test_a_block_where_only_some_restarts_reseed(self, monkeypatch):
        km = KMeans(3, n_init=10, init="random", seed=0)
        _blocks_of(monkeypatch, km.n_init, GRID, km.k)
        runs = assert_fit_matches_oracle(km, GRID)
        assert 0 < sum(run[4] for run in runs) < km.n_init

    def test_k_one(self):
        """A lone one-center restart gets its distances from a BLAS gemv.
        One GEMM over the whole block rounds them differently on this data
        (OpenBLAS, x86-64), so the inertia's bits pin the per-restart
        product."""
        x = np.random.default_rng(0).random((30, 3))
        assert_fit_matches_oracle(KMeans(1, n_init=4, seed=2), x)

    def test_k_equals_n(self, rng):
        assert_fit_matches_oracle(KMeans(6, n_init=4, seed=2), rng.random((6, 2)))

    def test_single_restart(self, rng):
        assert_fit_matches_oracle(KMeans(4, n_init=1, seed=2), rng.random((50, 3)))

    def test_restarts_not_a_multiple_of_the_block(self, rng, monkeypatch):
        x = rng.random((60, 4))
        km = KMeans(5, n_init=7, seed=11)
        _blocks_of(monkeypatch, 3, x, km.k)
        assert_fit_matches_oracle(km, x)

    def test_restarts_that_stop_at_max_iter(self, rng):
        x = rng.random((80, 3))
        assert_fit_matches_oracle(KMeans(6, n_init=5, max_iter=2, seed=4), x)

    def test_table1_scale(self, rng):
        """The Table I protocol's shape: 400 × 10 vectors, k=8, 100
        restarts, several blocks of them."""
        centers = rng.normal(scale=2.0, size=(8, 10))
        x, _ = blobs(rng, centers, n_per=50, scale=1.0)
        assert_fit_matches_oracle(KMeans(8, n_init=100, seed=0), x)


class TestSignals:
    def test_init_and_lloyd_spans_sit_under_fit(self, tmp_path, rng):
        import io

        from repro.obs.logging import (
            configure_logging,
            get_logger,
            parse_jsonl,
            teardown_logging,
        )

        path = tmp_path / "events.jsonl"
        handlers = configure_logging("error", json_path=path, stream=io.StringIO())
        try:
            with use(Recorder(logger=get_logger("test"))):
                KMeans(3, n_init=4, seed=0).fit(rng.random((40, 2)))
        finally:
            teardown_logging(handlers)
        ends = [e["path"] for e in parse_jsonl(path) if e["event"] == "span.end"]
        assert ends == [
            "kmeans.fit>kmeans.init",
            "kmeans.fit>kmeans.lloyd",
            "kmeans.fit",
        ]

    def test_one_observation_per_restart(self, rng):
        tape = _Tape()
        with use(tape):
            KMeans(3, n_init=13, seed=0).fit(rng.random((40, 2)))
        assert tape.registry.counter("kmeans.restarts").snapshot() == 13
        assert len(tape.observed("kmeans.restart_iterations")) == 13
        assert len(tape.observed("kmeans.restart_inertia")) == 13
