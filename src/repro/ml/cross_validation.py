"""k-fold cross validation, matching the paper's Section V protocol:
vertices are split into 10 equal random folds; each fold in turn hides
its labels, the other 9 train the classifier, and the reported accuracy
averages the 10 runs (repeated over multiple shuffles).

``cross_validate_knn`` scores every fold of every repeat from one
distance pass. A query's training set is every point outside its own
fold, so its k nearest training points are the first k of its nearest
neighbours overall that lie in another fold. The pass therefore keeps
each row's ``k + _SPARE`` nearest candidates, sorted by distance, and a
repeat only filters them by fold id:

- distances come in blocks of rows holding at most ``_BLOCK_BYTES``
  (KMeans's Lloyd budget), so no n × n array is ever built;
- a query left with fewer than k candidates outside its fold gets an
  exact pass over its full row, with its own fold masked out;
- the vote is ``KNNClassifier.predict``'s: majority, then the class with
  the nearest member, then the lower class index.

On data without distance ties the float returned is bitwise the one a
loop fitting a ``KNNClassifier`` per fold gives;
``tests/ml/test_cross_validation.py`` keeps that loop as the oracle.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.obs.recorder import current_recorder

__all__ = ["KFold", "cross_validate_knn"]

#: Bytes of distances one row block holds: ``(b, n)`` float64 for
#: ``b = max(1, _BLOCK_BYTES // (8 n))`` rows, the budget of a Lloyd block.
_BLOCK_BYTES = 256 * 1024

#: Candidates kept per row beyond k, so that the query's own fold rarely
#: leaves it short of k (a fold holds about 1 / n_splits of its neighbours).
_SPARE = 16


class KFold:
    """Shuffled k-fold splitter with deterministic seeding."""

    def __init__(self, n_splits: int = 10, *, seed: int | None = None) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.seed = seed

    def split(self, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_idx, test_idx)`` pairs covering all n samples."""
        if n < self.n_splits:
            raise ValueError(f"cannot split {n} samples into {self.n_splits} folds")
        rng = np.random.default_rng(self.seed)
        perm = rng.permutation(n)
        fold_sizes = np.full(self.n_splits, n // self.n_splits, dtype=np.int64)
        fold_sizes[: n % self.n_splits] += 1
        stop = 0
        for size in fold_sizes:
            start, stop = stop, stop + int(size)
            test = perm[start:stop]
            train = np.concatenate([perm[:start], perm[stop:]])
            yield train, test


def _distance_rows(x: np.ndarray, metric: str):
    """``rows -> (len(rows), n)`` distances, by ``KNNClassifier``'s formulas
    (worked in place, which rounds alike)."""
    if metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        norms[norms == 0] = 1.0
        unit = x / norms[:, None]

        def cosine(rows):
            dist = unit[rows] @ unit.T
            return np.subtract(1.0, dist, out=dist)

        return cosine
    sq = np.einsum("ij,ij->i", x, x)

    def squared_euclidean(rows):
        d2 = x[rows] @ x.T
        d2 *= -2.0
        d2 += sq[rows, None]
        d2 += sq[None, :]
        np.maximum(d2, 0.0, out=d2)
        return d2

    return squared_euclidean


def _row_blocks(rows: np.ndarray, n: int) -> Iterator[np.ndarray]:
    step = max(1, _BLOCK_BYTES // (8 * n))
    for start in range(0, rows.shape[0], step):
        yield rows[start : start + step]


def _nearest(dist: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of each row's m smallest entries, ascending."""
    part = np.argpartition(dist, m - 1, axis=1)[:, :m]
    values = np.take_along_axis(dist, part, axis=1)
    order = np.argsort(values, axis=1, kind="stable")
    return (
        np.take_along_axis(part, order, axis=1),
        np.take_along_axis(values, order, axis=1),
    )


def _vote(labels: np.ndarray, dist: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Winning class code per row of (q, k) neighbour labels and distances.

    Majority among the valid slots; among the tied classes, the one whose
    nearest member is nearest; on an exact distance tie, the lower code.
    """
    same = (labels[:, :, None] == labels[:, None, :]) & valid[:, None, :]
    votes = np.where(valid, same.sum(axis=2), 0)
    leading = votes == votes.max(axis=1, keepdims=True)
    nearest = np.where(leading, dist, np.inf)
    at_best = nearest == nearest.min(axis=1, keepdims=True)
    return np.where(at_best, labels, np.iinfo(labels.dtype).max).min(axis=1)


def cross_validate_knn(
    x: np.ndarray,
    y: np.ndarray,
    *,
    k: int = 3,
    metric: str = "cosine",
    n_splits: int = 10,
    repeats: int = 1,
    seed: int | None = None,
) -> float:
    """Mean k-NN accuracy over ``repeats`` runs of ``n_splits``-fold CV.

    Mirrors the paper: "10-fold cross validation ... repeated 10 times,
    report the average". Each repeat uses an independent shuffle spawned
    from ``seed``; per-fold accuracies are averaged in (repeat, fold)
    order. k is capped at each fold's training-set size, as
    ``KNNClassifier.predict`` caps it.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    y = np.asarray(y)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if metric not in ("cosine", "euclidean"):
        raise ValueError("metric must be 'cosine' or 'euclidean'")
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    if y.shape != (x.shape[0],):
        raise ValueError("y must have one label per row of x")
    n = x.shape[0]
    if n == 0:
        raise ValueError("training set must be non-empty")
    splits = []
    for rep_seed in np.random.SeedSequence(seed).spawn(repeats):
        folds = KFold(n_splits, seed=int(rep_seed.generate_state(1)[0]))
        splits.append([test for _, test in folds.split(n)])
    _, codes = np.unique(y, return_inverse=True)
    distances = _distance_rows(x, metric)

    m = min(k + _SPARE, n)
    cand = np.empty((n, m), dtype=np.intp)
    cand_dist = np.empty((n, m))
    for rows in _row_blocks(np.arange(n), n):
        cand[rows], cand_dist[rows] = _nearest(distances(rows), m)

    rec = current_recorder()
    fold_of = np.empty(n, dtype=np.intp)
    accuracies = []
    for tests in splits:
        sizes = np.array([t.shape[0] for t in tests])
        for f, test in enumerate(tests):
            fold_of[test] = f
        k_row = np.minimum(k, n - sizes)[fold_of]
        kmax = int(k_row.max())
        outside = fold_of[cand] != fold_of[:, None]
        # Each row's candidates outside its fold first, in distance order.
        pick = np.argsort(~outside, axis=1, kind="stable")[:, :kmax]
        nn = np.take_along_axis(cand, pick, axis=1)
        nn_dist = np.take_along_axis(cand_dist, pick, axis=1)
        short = np.flatnonzero(outside.sum(axis=1) < k_row)
        for rows in _row_blocks(short, n):
            dist = distances(rows)
            dist[fold_of[rows][:, None] == fold_of[None, :]] = np.inf
            nn[rows], nn_dist[rows] = _nearest(dist, kmax)
        rec.inc("predict.knn_fallback_rows", short.shape[0])
        valid = np.arange(kmax) < k_row[:, None]
        hits = _vote(codes[nn], nn_dist, valid) == codes
        accuracies.append(np.bincount(fold_of[hits], minlength=len(tests)) / sizes)
    return float(np.mean(np.concatenate(accuracies)))
