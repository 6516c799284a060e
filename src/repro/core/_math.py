"""Numerics shared by the embedding objectives."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from types import ModuleType

import numpy as np

__all__ = [
    "sigmoid",
    "log_sigmoid",
    "masked_context_mean",
    "scatter_add_rows",
    "sparsetools",
    "MAX_EXP",
]

# word2vec clips scores to [-6, 6]; we use a slightly wider, still-safe clip.
MAX_EXP = 12.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically clipped logistic function."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -MAX_EXP, MAX_EXP)))


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) computed stably via softplus."""
    x = np.clip(x, -MAX_EXP, MAX_EXP)
    return -np.log1p(np.exp(-x))


def _load_sparsetools() -> ModuleType:
    """scipy's compiled sparse kernels (``scipy/sparse/_sparsetools``).

    Loaded by file path: ``import scipy.sparse`` costs about 0.2 s and
    20 MB of start-up, nearly all of it in scipy's package ``__init__``,
    while the extension itself loads in under a millisecond and imports
    no ``scipy`` module. A scipy laid out differently falls back to the
    package import, which only costs that start-up time.
    """
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                # The name's last part picks the extension's init symbol;
                # outside the scipy package, scipy's own import of the
                # same file later builds its own module object.
                ext = importlib.util.spec_from_file_location(
                    "repro.core._sparsetools", path
                )
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                return module
    from scipy.sparse import _sparsetools

    return _sparsetools


#: ``csr_matvecs(n_row, n_col, n_vecs, indptr, indices, data, x, y)`` and
#: ``csc_matvecs`` add ``M @ x`` into ``y`` for the CSR/CSC matrix ``M``,
#: all arrays flat and C-ordered, in the order the entries are stored.
#: scipy's ``M @ dense`` is exactly ``np.zeros`` plus the same call, so
#: results are bitwise scipy's. The kernels check no index: every caller
#: passes indices inside the matrix shape. An output whose dtype is not
#: the inputs' common one is refused; a copy passed as the output (a
#: non-contiguous array raveled) would silently drop the result.
sparsetools = _load_sparsetools()

# Reused across calls: the selector's data/indptr buffers depend only on
# the batch size, and the scatter runs hundreds of times per epoch with a
# fixed batch shape — rebuilding them per call showed up in profiles.
_ones_cache = np.empty(0)
_indptr_cache = np.empty(0, dtype=np.int64)


def scatter_add_rows(target: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``target[idx] += rows`` with duplicate indices accumulated.

    Equivalent to ``np.add.at(target, idx, rows)`` but run as a sparse
    product: a (V × N) one-hot selector in CSC form, one entry per column
    (row ``idx[j]`` of column ``j``), times the (N × d) row block, through
    :data:`sparsetools`' ``csc_matvecs``. Each target row sums its rows
    in index order into zeros, and the sum is then added to ``target``.
    Profiling (see DESIGN.md §6) puts the sparse product ~6× ahead of
    ``ufunc.at`` and ~8× ahead of sort+``reduceat`` on minibatch-SGD
    index patterns — the scatter is the training hot spot.

    Two micro-optimizations on top (measured in
    ``benchmarks/test_micro_kernels.py``): the per-batch ``ones``/
    ``indptr`` buffers are cached between calls, and a duplicate-free
    index batch (checked with one ``bincount``, which also bounds the
    indices) skips the product entirely — plain fancy-index add is exact
    when no index repeats.
    """
    global _ones_cache, _indptr_cache
    n = idx.shape[0]
    if n == 0:
        return
    counts = np.bincount(idx)  # refuses negative indices
    if counts.shape[0] > target.shape[0]:
        raise IndexError(
            f"index {counts.shape[0] - 1} is out of bounds for {target.shape[0]} rows"
        )
    if int(counts.max()) <= 1:
        target[idx] += rows
        return
    if _ones_cache.shape[0] < n:
        _ones_cache = np.ones(n)
        _indptr_cache = np.arange(n + 1, dtype=np.int64)
    rows = np.ascontiguousarray(rows)
    acc = np.zeros(target.shape, dtype=np.result_type(_ones_cache, rows))
    sparsetools.csc_matvecs(
        target.shape[0],
        n,
        target.shape[1],
        _indptr_cache[: n + 1],
        idx,
        _ones_cache[:n],
        rows.reshape(-1),
        acc.reshape(-1),
    )
    target += acc


def masked_context_mean(
    w_in: np.ndarray, contexts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean input vector over the real (non ``-1``) context slots.

    Returns ``(h, mask, counts)`` where ``h`` is (B × d), ``mask`` is the
    boolean validity matrix (B × C) and ``counts`` the per-row number of
    real contexts (always >= 1 for rows produced by the corpus).
    """
    mask = contexts >= 0
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("every example must have at least one context token")
    safe = np.where(mask, contexts, 0)
    vecs = w_in[safe]  # (B, C, d)
    vecs = vecs * mask[:, :, None]
    h = vecs.sum(axis=1) / counts[:, None]
    return h, mask, counts
