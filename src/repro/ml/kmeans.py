"""k-means clustering: Lloyd's algorithm, k-means++ seeding, restarts.

The paper clusters V2V vectors with Lloyd's algorithm repeated 100 times,
keeping the solution with the lowest within-cluster sum of squares
(Section III). ``KMeans(n_init=100)`` reproduces that protocol exactly.

Every restart's initial centers are drawn first, in restart order, from
one generator. Lloyd draws nothing, so that is the stream a loop running
one restart at a time would draw. Lloyd then runs on blocks of restarts:
a block of ``b`` restarts is a ``(b, k, d)`` stack of centers, and one
iteration costs the same dozen numpy calls whatever ``b`` is:

- one stacked matmul for the ``(b, n, k)`` squared distances, through
  ||x - c||² = ||x||² - 2 x·c + ||c||², clipped at 0;
- one argmin over the k centers (the first minimum wins);
- the center sums as one sparse ``(b·k × n)`` assignment matrix times x,
  and the counts as one ``bincount``;
- the farthest-point reseed, on the restarts that emptied a cluster;
- the relative center-shift test, per restart.

A restart leaves the stack once it converges. A block holds at most
``_SCORE_BYTES`` of distances (or one restart's, when that is more), so
its working set stays in cache.

Blocking changes no arithmetic. Each restart's distances come from the
same BLAS call a lone restart makes, its center sums accumulate in point
order (as ``np.add.at`` does), and its shift norms are the same BLAS dot
products as ``np.linalg.norm``'s. The clustering is therefore bitwise the
one a loop over restarts gives; ``tests/ml/test_kmeans.py`` keeps that
loop as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.recorder import current_recorder

__all__ = ["KMeans", "KMeansResult"]

#: Bytes of squared distances one Lloyd block holds: ``(b, n, k)`` float64
#: for ``b = max(1, _SCORE_BYTES // (8 n k))`` restarts.
_SCORE_BYTES = 256 * 1024


@dataclass(frozen=True)
class KMeansResult:
    """Best clustering found across restarts."""

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    iterations: int
    restarts: int

    @property
    def k(self) -> int:
        return int(self.centers.shape[0])


def _block_distances(
    x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """(b × n × k) squared distances of ``x`` to a (b, k, d) center stack.

    ``x_sq`` holds the rows' squared norms, repeated k times per row as an
    (n, k) array. Clipped at 0 for float drift.
    """
    b, k, d = centers.shape
    flat = centers.reshape(b * k, d)
    # Batch r is x @ centers[r].T, the very BLAS call of a lone restart.
    d2 = x @ centers.transpose(0, 2, 1)
    d2 *= -2.0
    d2 += x_sq
    d2 += np.einsum("ij,ij->i", flat, flat).reshape(b, 1, k)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each (k, d) slice, as ``np.linalg.norm`` takes it:
    the square root of one BLAS dot product of the raveled slice."""
    flat = stack.reshape(stack.shape[0], -1)
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])


def _kmeanspp_init(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii): D² sampling."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = x[first]
    diff = x - centers[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining points coincide with a center: pick uniformly.
            choice = int(rng.integers(0, n))
        else:
            choice = int(np.searchsorted(np.cumsum(d2), rng.random() * total))
            choice = min(choice, n - 1)
        centers[i] = x[choice]
        np.subtract(x, centers[i], out=diff)
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
    return centers


def _lloyd(
    x: np.ndarray,
    x_sq: np.ndarray,
    centers: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd on a (b, k, d) stack of initial centers.

    ``x_sq`` is as :func:`_block_distances` takes it. Returns each
    restart's final centers (b, k, d), iteration count (b,), labels (b, n)
    and inertia (b,).
    """
    from scipy import sparse

    b, k, d = centers.shape
    n = x.shape[0]
    final = np.empty_like(centers)
    iterations = np.full(b, max_iter)
    live = np.arange(b)
    offsets = k * live[:, None]
    ones = np.ones(b * n)
    for iteration in range(1, max_iter + 1):
        a = live.size
        d2 = _block_distances(x, x_sq, centers)
        labels = d2.argmin(axis=2)
        rows = labels + offsets[:a]
        counts = np.bincount(rows.ravel(), minlength=a * k).astype(np.float64)
        # Column j holds point j's center in each restart, and the product
        # visits columns in order: every center sums its points in order.
        assign = sparse.csc_array(
            (ones[: a * n], rows.T.ravel(), np.arange(0, a * n + 1, a)),
            shape=(a * k, n),
        )
        new = (assign @ x).reshape(a, k, d)
        counts = counts.reshape(a, k)
        for r in np.flatnonzero((counts == 0).any(axis=1)):
            # Re-seed the restart's empty clusters at the points farthest
            # from their center, the standard fix that keeps k clusters.
            far = np.argsort(-d2[r][np.arange(n), labels[r]])
            for j, c in enumerate(np.flatnonzero(counts[r] == 0)):
                new[r, c] = x[far[j % n]]
                counts[r, c] = 1.0
        new /= counts[:, :, None]
        shift = _norms(new - centers)
        scale = _norms(centers)
        scale[scale == 0.0] = 1.0
        converged = shift / scale < tol
        centers = new
        if converged.any():
            final[live[converged]] = centers[converged]
            iterations[live[converged]] = iteration
            live, centers = live[~converged], centers[~converged]
            if not live.size:
                break
    final[live] = centers
    d2 = _block_distances(x, x_sq, final)
    labels = d2.argmin(axis=2)
    # (b, n) contiguous: each row sums pairwise, as a lone restart's does.
    inertia = np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    return final, iterations, labels, inertia


class KMeans:
    """Lloyd's k-means with k-means++ (or random) init and restarts.

    Parameters
    ----------
    k:
        Number of clusters.
    n_init:
        Independent restarts; the lowest-inertia run wins (paper: 100).
    max_iter:
        Lloyd iterations per restart.
    tol:
        Relative center-shift convergence threshold.
    init:
        ``"k-means++"`` or ``"random"`` (uniform distinct points).
    seed:
        Seed for all restarts (restart streams are spawned internally).
    """

    def __init__(
        self,
        k: int,
        *,
        n_init: int = 10,
        max_iter: int = 300,
        tol: float = 1e-6,
        init: str = "k-means++",
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if n_init < 1:
            raise ValueError("n_init must be >= 1")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if init not in ("k-means++", "random"):
            raise ValueError("init must be 'k-means++' or 'random'")
        self.k = k
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.init = init
        self.seed = seed

    def fit(self, x: np.ndarray) -> KMeansResult:
        """Cluster rows of ``x``; returns the best restart."""
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        if x.ndim != 2:
            raise ValueError("x must be 2-D (samples × features)")
        n = x.shape[0]
        if n < self.k:
            raise ValueError(f"need at least k={self.k} samples, got {n}")
        rng = np.random.default_rng(self.seed)
        rec = current_recorder()
        with rec.span("kmeans.fit", k=self.k, n=n, n_init=self.n_init) as span:
            with rec.span("kmeans.init"):
                starts = np.stack([self._init(x, rng) for _ in range(self.n_init)])
            with rec.span("kmeans.lloyd"):
                x_sq = np.einsum("ij,ij->i", x, x)[:, None].repeat(self.k, axis=1)
                block = max(1, _SCORE_BYTES // (8 * n * self.k))
                best = None
                for lo in range(0, self.n_init, block):
                    centers, iterations, labels, inertia = _lloyd(
                        x, x_sq, starts[lo : lo + block], self.max_iter, self.tol
                    )
                    for r in range(centers.shape[0]):
                        if rec.enabled:
                            rec.inc("kmeans.restarts")
                            rec.observe("kmeans.restart_inertia", float(inertia[r]))
                            rec.observe(
                                "kmeans.restart_iterations", int(iterations[r])
                            )
                        if best is None or inertia[r] < best[2]:
                            best = (labels[r], centers[r], inertia[r], iterations[r])
            assert best is not None
            result = KMeansResult(
                labels=best[0].copy(),
                centers=best[1].copy(),
                inertia=float(best[2]),
                iterations=int(best[3]),
                restarts=self.n_init,
            )
            if rec.enabled:
                rec.set("kmeans.best_inertia", result.inertia)
                span.annotate(
                    inertia=round(result.inertia, 6), iterations=result.iterations
                )
        return result

    def _init(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One restart's initial (k, d) centers."""
        if self.init == "k-means++":
            return _kmeanspp_init(x, self.k, rng)
        return x[rng.choice(x.shape[0], size=self.k, replace=False)]

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).labels
