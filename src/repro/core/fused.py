"""Fused batched CBOW negative-sampling kernel (float32).

The CBOW + negative-sampling kernel every worker count runs (the
reference :class:`repro.core.cbow.CBOWNegativeSampling` kernel stays
selectable with ``kernel="reference"``). A minibatch is two sparse
(B × V) matrices built straight from CSR arrays, so scipy never converts
from COO:

- **A**, the context-mean matrix: row ``b`` holds ``1/count_b`` at each
  real context slot of example ``b``. ``h = A @ w_in`` is the context
  mean and ``w_in += A.T @ grad_h`` its exact adjoint; pad slots simply
  have no entry.
- **G**, the gradient matrix: row ``b`` holds the ``1+K`` scaled
  gradients at the center and its negatives, over a fixed stride-(1+K)
  ``indptr``. ``w_out += G.T @ h`` is the output update.

scipy's CSR products sum duplicate indices, so a vertex repeated in one
context row, a target shared by several rows, or a negative equal to its
center all accumulate exactly. The remaining fusions:

- **float32 weights** — halves the bytes every gather/scatter moves.
- **alias-table negatives** — one :class:`~repro.walks.alias.AliasTable`
  draw per batch, O(1) per sample with no collision-avoidance redraw
  (word2vec's C implementation also keeps accidental positives).
- **matmul scoring** — ``(B, 1+K, d) @ (B, d, 1)`` batched matmul, a
  one-pass loss ``Σ log1p(exp(sign · s))``, and in-place clip/sigmoid/
  gradient arithmetic on one ``(B, 1+K)`` buffer.
- **cached per-batch-size buffers** — targets, labels, signs and G's
  ``indptr`` are reused across batches of the same size.

The updates are dense in-place ``+=`` over the whole matrices, so
Hogwild workers running this kernel on shared memory race only per
element. The public surface matches the reference kernel —
``batch_step(centers, contexts, lr, rng)``, ``w_in``/``w_out``, and a
``vectors`` property that returns float64.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core._math import MAX_EXP
from repro.walks.alias import AliasTable, build_alias

__all__ = ["FusedCBOWNegativeSampling"]


class FusedCBOWNegativeSampling:
    """CBOW + negative sampling with the fused float32 batch kernel.

    Construction takes the noise *distribution* directly (not a
    :class:`~repro.core.negative.NegativeSampler`): negatives are drawn
    from a single alias table over the vocabulary, built once here.
    """

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        noise_distribution: np.ndarray,
        *,
        negatives: int = 5,
        rng: np.random.Generator | None = None,
    ) -> None:
        if vocab_size < 1 or dim < 1:
            raise ValueError("vocab_size and dim must be positive")
        if negatives < 1:
            raise ValueError("negatives must be >= 1")
        dist = np.asarray(noise_distribution, dtype=np.float64)
        if dist.shape != (vocab_size,):
            raise ValueError("noise distribution must have one entry per vocab id")
        rng = rng or np.random.default_rng()
        self.vocab_size = vocab_size
        self.dim = dim
        self.negatives = negatives
        prob, alias = build_alias(dist)
        self._noise = AliasTable(prob=prob, alias=alias)
        # Same init draw count/order as the reference kernel, cast down.
        self.w_in = (
            ((rng.random((vocab_size, dim)) - 0.5) / dim).astype(np.float32)
        )
        self.w_out = np.zeros((vocab_size, dim), dtype=np.float32)
        # Handing scipy indices already in its own index dtype spares
        # every matrix build a content scan and a cast.
        self._index_dtype = sparse.get_index_dtype(maxval=vocab_size)
        self._resize(0)

    def _resize(self, batch: int) -> None:
        """(Re)build the buffers that depend only on the batch size."""
        width = 1 + self.negatives
        self._targets = np.empty((batch, width), dtype=np.int64)
        self._labels = np.zeros((batch, width), dtype=np.float32)
        self._labels[:, 0] = 1.0
        self._sign = 1.0 - 2.0 * self._labels  # -1 at the center, +1 at negatives
        self._g_indptr = np.arange(
            0, batch * width + 1, width, dtype=self._index_dtype
        )

    @property
    def vectors(self) -> np.ndarray:
        """The learned input embeddings, upcast to the float64 contract."""
        return self.w_in.astype(np.float64)

    def batch_step(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        """One SGD step over a minibatch; returns the mean example loss."""
        batch = centers.shape[0]
        shape = (batch, self.vocab_size)
        mask = contexts >= 0
        counts = mask.sum(axis=1)
        if np.any(counts == 0):
            raise ValueError("every example must have at least one context token")
        indptr = np.zeros(batch + 1, dtype=self._index_dtype)
        np.cumsum(counts, out=indptr[1:])
        inv = np.float32(1.0) / counts.astype(np.float32)
        A = sparse.csr_matrix(
            (
                np.repeat(inv, counts),
                contexts[mask].astype(self._index_dtype),
                indptr,
            ),
            shape=shape,
        )
        h = A @ self.w_in  # (B, d) context means

        negs = self._noise.sample(
            0, self.vocab_size, rng, shape=(batch, self.negatives)
        )
        if self._targets.shape[0] != batch:
            self._resize(batch)
        targets = self._targets
        targets[:, 0] = centers
        targets[:, 1:] = negs

        out_vecs = np.take(self.w_out, targets, axis=0)  # (B, 1+K, d)
        scores = (out_vecs @ h[:, :, None])[:, :, 0]  # (B, 1+K)
        np.clip(scores, -MAX_EXP, MAX_EXP, out=scores)
        # loss = -log σ(s⁺) - Σ log σ(-s⁻) = Σ log1p(exp(sign · s)), read
        # off before `scores` turns into predictions and then gradients.
        loss = float(np.log1p(np.exp(self._sign * scores)).sum())
        np.negative(scores, out=scores)
        np.exp(scores, out=scores)
        scores += np.float32(1.0)
        np.reciprocal(scores, out=scores)  # scores := σ(scores)
        np.subtract(self._labels, scores, out=scores)
        scores *= np.float32(lr)  # scores := (labels - preds) * lr
        g = scores

        grad_h = (g[:, None, :] @ out_vecs)[:, 0, :]  # before w_out update
        # G's CSR arrays read as CSC are G.T: one matrix build, not two.
        G_T = sparse.csc_matrix(
            (g.ravel(), targets.ravel().astype(self._index_dtype), self._g_indptr),
            shape=shape[::-1],
        )
        self.w_out += G_T @ h
        self.w_in += A.T @ grad_h
        return loss / batch
