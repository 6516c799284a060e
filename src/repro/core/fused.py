"""Fused batched CBOW negative-sampling kernel (float32).

The CBOW + negative-sampling kernel every worker count runs (the
reference :class:`repro.core.cbow.CBOWNegativeSampling` kernel stays
selectable with ``kernel="reference"``). A minibatch is two sparse
(B × V) matrices over CSR arrays, so scipy never converts from COO:

- **A**, the context-mean matrix: row ``b`` holds ``1/count_b`` at each
  real context slot of example ``b``. ``h = A @ w_in`` is the context
  mean and ``w_in += A.T @ grad_h`` its exact adjoint; pad slots simply
  have no entry.
- **G**, the gradient matrix: row ``b`` holds the ``1+K`` scaled
  gradients at the center and its negatives, over a fixed stride-(1+K)
  ``indptr``. ``w_out += G.T @ h`` is the output update.

scipy's CSR products sum duplicate indices, so a vertex repeated in one
context row, a target shared by several rows, or a negative equal to its
center all accumulate exactly.

**Block plan.** The trainer hands the kernel a block of consecutive
batches (:meth:`FusedCBOWNegativeSampling.plan_block`). Everything that
does not read the weights is done once per block: the context mask and
counts, A's CSR arrays, and the alias negatives of every batch — one
``rng.random`` call laid out as the per-batch draws were (each batch's
``u`` uniforms, then its ``accept`` uniforms), so the plan consumes the
generator exactly as one step per batch did. Each batch then steps on
sparse shells kept per batch size: A, A's CSC adjoint and G.T are
built once and only have their arrays swapped per batch.
:meth:`~FusedCBOWNegativeSampling.batch_step` is the one-batch plan.

The remaining fusions:

- **float32 weights** — halves the bytes every gather/scatter moves.
- **alias-table negatives** — one :class:`~repro.walks.alias.AliasTable`
  over the vocabulary, O(1) per sample with no collision-avoidance
  redraw (word2vec's C implementation also keeps accidental positives).
- **matmul scoring** — ``(B, 1+K, d) @ (B, d, 1)`` batched matmul, a
  one-pass loss ``Σ log1p(exp(sign · s))``, and in-place clip/sigmoid/
  gradient arithmetic on one ``(B, 1+K)`` buffer.

The updates are dense in-place ``+=`` over the whole matrices, so
Hogwild workers running this kernel on shared memory race only per
element. The public surface matches the reference kernel —
``batch_step(centers, contexts, lr, rng)``, ``w_in``/``w_out``, and a
``vectors`` property that returns float64.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator

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
        # every product a content scan and a cast.
        self._index_dtype = sparse.get_index_dtype(maxval=vocab_size)
        self._shells: dict[int, _Shells] = {}

    def _shells_for(self, batch: int) -> "_Shells":
        shells = self._shells.get(batch)
        if shells is None:
            if len(self._shells) >= 4:  # full size plus recent partials
                self._shells.clear()
            shells = self._shells[batch] = _Shells(
                batch, self.vocab_size, self.negatives, self._index_dtype
            )
        return shells

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
        """One SGD step over a minibatch; returns the mean example loss.

        The one-batch case of :meth:`plan_block`.
        """
        ((_, step),) = self.plan_block(centers, contexts, centers.shape[0], rng)
        return step(lr)

    def plan_block(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        batch_size: int,
        rng: np.random.Generator,
    ) -> Iterator[tuple[int, Callable[[float], float]]]:
        """Plan a block of consecutive batches; yield ``(examples, step)``
        per batch, where ``step(lr)`` runs that batch's SGD step and
        returns its mean example loss.

        Everything that does not read the weights is done here, once for
        the block: the context mask and counts, A's CSR arrays, and the
        alias negatives of every batch. The negatives consume ``rng``
        exactly as one :meth:`batch_step` per batch would, so stepping a
        plan batch by batch is bitwise the per-batch loop.
        """
        n = centers.shape[0]
        mask = contexts >= 0
        # einsum sums the short rows far faster than mask.sum(axis=1).
        counts = np.einsum("ij->i", mask.view(np.uint8), dtype=np.int64)
        if np.any(counts == 0):
            raise ValueError("every example must have at least one context token")
        inv = np.float32(1.0) / counts.astype(np.float32)
        a_data = np.repeat(inv, counts)
        a_indices = contexts[mask].astype(self._index_dtype)
        ends = np.zeros(n + 1, dtype=self._index_dtype)
        np.cumsum(counts, out=ends[1:])
        targets = np.empty((n, 1 + self.negatives), dtype=np.int64)
        targets[:, 0] = centers
        targets[:, 1:] = self._negatives(n, batch_size, rng)
        t_indices = targets.astype(self._index_dtype)
        for lo in range(0, n, batch_size):
            hi = min(lo + batch_size, n)
            a, b = ends[lo], ends[hi]
            step = partial(
                self._step,
                a_data[a:b],
                a_indices[a:b],
                ends[lo : hi + 1] - a,
                targets[lo:hi],
                t_indices[lo:hi].reshape(-1),
            )
            yield hi - lo, step

    def _negatives(
        self, n: int, batch_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Alias negatives for ``n`` examples in batches of ``batch_size``.

        One ``rng.random`` call covers the block. It is laid out as the
        per-batch draws were: each batch's ``u`` uniforms, then its
        ``accept`` uniforms, batch after batch, a partial batch last.
        """
        k = self.negatives
        draws = rng.random(2 * n * k)
        full = (n // batch_size) * batch_size * k
        head = draws[: 2 * full].reshape(-1, 2, batch_size * k)
        tail = draws[2 * full :].reshape(2, -1)
        u = np.concatenate([head[:, 0].reshape(-1), tail[0]])
        accept = np.concatenate([head[:, 1].reshape(-1), tail[1]])
        return self._noise.sample(
            0, self.vocab_size, _Uniforms(u, accept), shape=(n, k)
        )

    def _step(
        self,
        a_data: np.ndarray,
        a_indices: np.ndarray,
        a_indptr: np.ndarray,
        targets: np.ndarray,
        t_indices: np.ndarray,
        lr: float,
    ) -> float:
        """One planned batch's SGD step: the only part that reads weights."""
        batch = targets.shape[0]
        shells = self._shells_for(batch)
        A, A_T, G_T = shells.A, shells.A_T, shells.G_T
        A.data = A_T.data = a_data
        A.indices = A_T.indices = a_indices
        A.indptr = A_T.indptr = a_indptr
        h = A @ self.w_in  # (B, d) context means

        out_vecs = np.take(self.w_out, targets, axis=0)  # (B, 1+K, d)
        scores = (out_vecs @ h[:, :, None])[:, :, 0]  # (B, 1+K)
        np.clip(scores, -MAX_EXP, MAX_EXP, out=scores)
        # loss = -log σ(s⁺) - Σ log σ(-s⁻) = Σ log1p(exp(sign · s)), read
        # off before `scores` turns into predictions and then gradients.
        loss = float(np.log1p(np.exp(shells.sign * scores)).sum())
        np.negative(scores, out=scores)
        np.exp(scores, out=scores)
        scores += np.float32(1.0)
        np.reciprocal(scores, out=scores)  # scores := σ(scores)
        np.subtract(shells.labels, scores, out=scores)
        scores *= np.float32(lr)  # scores := (labels - preds) * lr
        g = scores

        grad_h = (g[:, None, :] @ out_vecs)[:, 0, :]  # before w_out update
        G_T.data = g.reshape(-1)
        G_T.indices = t_indices
        self.w_out += G_T @ h
        self.w_in += A_T @ grad_h
        return loss / batch


class _Shells:
    """Per-batch-size sparse shells and constant buffers of the kernel.

    ``A`` (CSR, B × V) and ``A_T`` (CSC, V × B) read the same three
    arrays, so ``A_T`` is A's exact adjoint; ``G_T`` is G read as CSC,
    over a fixed stride-(1+K) ``indptr``. A step assigns its batch's
    arrays to the shells instead of building three scipy matrices.
    """

    def __init__(self, batch: int, vocab_size: int, negatives: int, index_dtype):
        width = 1 + negatives
        empty_ptr = np.zeros(batch + 1, dtype=index_dtype)
        none = (np.empty(0, np.float32), np.empty(0, index_dtype), empty_ptr)
        self.A = sparse.csr_matrix(none, shape=(batch, vocab_size))
        self.A_T = sparse.csc_matrix(none, shape=(vocab_size, batch))
        g_indptr = np.arange(0, batch * width + 1, width, dtype=index_dtype)
        self.G_T = sparse.csc_matrix(
            (
                np.zeros(batch * width, np.float32),
                np.zeros(batch * width, index_dtype),
                g_indptr,
            ),
            shape=(vocab_size, batch),
        )
        self.labels = np.zeros((batch, width), dtype=np.float32)
        self.labels[:, 0] = 1.0
        self.sign = 1.0 - 2.0 * self.labels  # -1 at the center, +1 at negatives


class _Uniforms:
    """Hands :meth:`AliasTable.sample` pre-drawn uniforms in the order it
    reads them (``u``, then ``accept``), in place of a generator."""

    def __init__(self, *draws: np.ndarray) -> None:
        self._draws = iter(draws)

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        return next(self._draws).reshape(shape)
