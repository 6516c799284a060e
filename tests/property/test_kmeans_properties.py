"""Property-based tests for k-means and PCA."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml import kmeans as kmeans_module
from repro.ml.kmeans import KMeans
from repro.ml.pca import PCA
from tests.ml.test_kmeans import assert_fit_matches_oracle

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def datasets(draw, min_rows=4, max_rows=20, min_cols=1, max_cols=5):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    return draw(arrays(np.float64, (rows, cols), elements=finite))


@given(datasets(), st.integers(1, 3), st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_kmeans_output_invariants(x, k, seed):
    result = KMeans(k, n_init=2, seed=seed).fit(x)
    assert result.labels.shape == (x.shape[0],)
    assert result.labels.min() >= 0
    assert result.labels.max() < k
    assert result.centers.shape == (k, x.shape[1])
    assert result.inertia >= 0
    assert np.all(np.isfinite(result.centers))


@given(datasets(), st.integers(1, 3), st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_kmeans_labels_are_nearest_centers(x, k, seed):
    result = KMeans(k, n_init=1, seed=seed).fit(x)
    d2 = ((x[:, None, :] - result.centers[None, :, :]) ** 2).sum(axis=2)
    own = d2[np.arange(x.shape[0]), result.labels]
    assert np.all(own <= d2.min(axis=1) + 1e-9)


@given(
    datasets(),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from(["k-means++", "random"]),
    st.integers(0, 99),
)
@settings(max_examples=60, deadline=None)
def test_kmeans_fit_matches_sequential_oracle(x, k, n_init, block, init, seed):
    """Batched restarts equal one-at-a-time restarts bit for bit, at any
    block size (``block`` restarts per Lloyd stack)."""
    score_bytes = 8 * x.shape[0] * k * block
    with mock.patch.object(kmeans_module, "_SCORE_BYTES", score_bytes):
        assert_fit_matches_oracle(KMeans(k, n_init=n_init, init=init, seed=seed), x)


@given(datasets(), st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_kmeans_inertia_decreases_in_k(x, seed):
    if x.shape[0] < 3:
        return
    i1 = KMeans(1, n_init=1, seed=seed).fit(x).inertia
    i2 = KMeans(2, n_init=3, seed=seed).fit(x).inertia
    assert i2 <= i1 + 1e-9


@given(datasets(min_rows=5, min_cols=2))
@settings(max_examples=40, deadline=None)
def test_pca_projection_shape_and_finite(x):
    k = min(2, min(x.shape) - 1)
    if k < 1:
        return
    z = PCA(k).fit_transform(x)
    assert z.shape == (x.shape[0], k)
    assert np.all(np.isfinite(z))


@given(datasets(min_rows=5, min_cols=2))
@settings(max_examples=40, deadline=None)
def test_pca_variance_nonincreasing(x):
    k = min(x.shape[0], x.shape[1])
    pca = PCA(k).fit(x)
    assert np.all(np.diff(pca.explained_variance_) <= 1e-9)


@given(datasets(min_rows=5, min_cols=2))
@settings(max_examples=40, deadline=None)
def test_pca_projection_norm_bounded(x):
    """Projection never increases a centered sample's norm (components
    are orthonormal rows)."""
    k = min(2, min(x.shape) - 1)
    if k < 1:
        return
    pca = PCA(k).fit(x)
    centered = x - pca.mean_
    z = pca.transform(x)
    assert np.all(
        np.linalg.norm(z, axis=1) <= np.linalg.norm(centered, axis=1) + 1e-6
    )
