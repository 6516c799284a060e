"""Fused batched CBOW negative-sampling kernel (float32).

The CBOW + negative-sampling kernel every worker count runs (the
reference :class:`repro.core.cbow.CBOWNegativeSampling` kernel stays
selectable with ``kernel="reference"``). A minibatch is two sparse
(B × V) matrices, each held as the three flat arrays of a compressed
sparse matrix and multiplied by scipy's compiled kernels
(:data:`repro.core._math.sparsetools`) called directly on plain arrays:

- **A**, the context-mean matrix, over a fixed stride of one entry per
  context slot (2·window): row ``b`` holds ``1/count_b`` at each real
  context of example ``b``, and a pad slot holds weight 0 at vertex 0,
  which adds an exact zero to every sum it joins (the weights are
  finite). ``h = A @ w_in`` (``csr_matvecs``) is the context mean, and
  ``A.T @ grad_h`` (``csc_matvecs`` over the same arrays) its exact
  adjoint.
- **G**, the gradient matrix: row ``b`` holds the ``1+K`` scaled
  gradients at the center and its negatives, over a fixed stride-(1+K)
  ``indptr``. ``G.T @ h`` (``csc_matvecs``) is the output update.

Both strides are fixed, so each ``indptr`` is an ``arange`` cached per
batch size. The kernels sum in the order the entries are stored, as
scipy's ``M @ dense`` does (it is ``np.zeros`` plus the same call), so a
vertex repeated in one context row, a target shared by several rows, or
a negative equal to its center all accumulate exactly.

**Block plan.** The trainer hands the kernel a block of consecutive
batches (:meth:`FusedCBOWNegativeSampling.plan_block`). Everything that
does not read the weights is done once per block: the context mask and
counts, A's data and indices, and the alias negatives of every batch —
one ``rng.random`` call laid out as the per-batch draws were (each
batch's ``u`` uniforms, then its ``accept`` uniforms), so the plan
consumes the generator exactly as one step per batch did.
:meth:`~FusedCBOWNegativeSampling.batch_step` is the one-batch plan.

The remaining fusions:

- **float32 weights** — halves the bytes every gather/scatter moves.
- **alias-table negatives** — one :class:`~repro.walks.alias.AliasTable`
  over the vocabulary, O(1) per sample with no collision-avoidance
  redraw (word2vec's C implementation also keeps accidental positives).
- **matmul scoring** — ``(B, 1+K, d) @ (B, d, 1)`` batched matmul, a
  one-pass loss ``Σ log1p(exp(sign · s))``, and in-place clip/sigmoid/
  gradient arithmetic on one ``(B, 1+K)`` buffer.
- **reused buffers** — ``h`` goes to a (B, d) buffer kept per batch
  size, and each update accumulates into one private (V, d) buffer,
  zeroed before each of the two products.

Each update is then a dense in-place ``+=`` of that buffer over the
whole matrix, so Hogwild workers running this kernel on shared memory
race only per element. The public surface matches the reference kernel —
``batch_step(centers, contexts, lr, rng)``, ``w_in``/``w_out``, and a
``vectors`` property that returns float64.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator

import numpy as np

from repro.core._math import MAX_EXP, sparsetools
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
        # One index dtype for every index array, so no product casts one.
        self._index_dtype = np.dtype(np.int32 if vocab_size < 2**31 else np.int64)
        self._acc = np.zeros((vocab_size, dim), dtype=np.float32)
        self._buffers: dict[tuple[int, int], _Buffers] = {}

    def _buffers_for(self, batch: int, stride: int) -> "_Buffers":
        buffers = self._buffers.get((batch, stride))
        if buffers is None:
            if len(self._buffers) >= 4:  # full size plus recent partials
                self._buffers.clear()
            buffers = self._buffers[batch, stride] = _Buffers(
                batch, stride, self.dim, self.negatives, self._index_dtype
            )
        return buffers

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
        the block: the context mask and counts, A's data and indices (pad
        slots as weight 0 at vertex 0), and the alias negatives of every
        batch. The negatives consume ``rng`` exactly as one
        :meth:`batch_step` per batch would, so stepping a plan batch by
        batch is bitwise the per-batch loop.
        """
        n = centers.shape[0]
        mask = contexts >= 0
        # einsum sums the short rows far faster than mask.sum(axis=1).
        counts = np.einsum("ij->i", mask.view(np.uint8), dtype=np.int64)
        if np.any(counts == 0):
            raise ValueError("every example must have at least one context token")
        inv = np.float32(1.0) / counts.astype(np.float32)
        a_data = np.multiply(mask, inv[:, None], dtype=np.float32)
        a_indices = contexts.astype(self._index_dtype)
        np.maximum(a_indices, 0, out=a_indices)  # pads (-1) read vertex 0
        targets = np.empty((n, 1 + self.negatives), dtype=np.int64)
        targets[:, 0] = centers
        targets[:, 1:] = self._negatives(n, batch_size, rng)
        t_indices = targets.astype(self._index_dtype)
        for lo in range(0, n, batch_size):
            hi = min(lo + batch_size, n)
            step = partial(
                self._step,
                a_data[lo:hi],
                a_indices[lo:hi],
                targets[lo:hi],
                t_indices[lo:hi],
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
        targets: np.ndarray,
        t_indices: np.ndarray,
        lr: float,
    ) -> float:
        """One planned batch's SGD step: the only part that reads weights."""
        (batch, stride), vocab, dim = a_data.shape, self.vocab_size, self.dim
        buffers = self._buffers_for(batch, stride)
        a_data, a_indices = a_data.reshape(-1), a_indices.reshape(-1)
        h = buffers.h
        h.fill(0.0)
        sparsetools.csr_matvecs(
            batch, vocab, dim, buffers.a_indptr, a_indices, a_data,
            self.w_in.reshape(-1), h.reshape(-1),
        )  # (B, d) context means

        out_vecs = np.take(self.w_out, targets, axis=0)  # (B, 1+K, d)
        scores = (out_vecs @ h[:, :, None])[:, :, 0]  # (B, 1+K)
        np.clip(scores, -MAX_EXP, MAX_EXP, out=scores)
        # loss = -log σ(s⁺) - Σ log σ(-s⁻) = Σ log1p(exp(sign · s)), read
        # off before `scores` turns into predictions and then gradients.
        loss = float(np.log1p(np.exp(buffers.sign * scores)).sum())
        np.negative(scores, out=scores)
        np.exp(scores, out=scores)
        scores += np.float32(1.0)
        np.reciprocal(scores, out=scores)  # scores := σ(scores)
        np.subtract(buffers.labels, scores, out=scores)
        scores *= np.float32(lr)  # scores := (labels - preds) * lr
        g = scores

        grad_h = (g[:, None, :] @ out_vecs)[:, 0, :]  # before w_out update
        acc = self._acc
        acc.fill(0.0)
        sparsetools.csc_matvecs(
            vocab, batch, dim, buffers.g_indptr, t_indices.reshape(-1),
            g.reshape(-1), h.reshape(-1), acc.reshape(-1),
        )  # G.T @ h
        self.w_out += acc
        acc.fill(0.0)
        sparsetools.csc_matvecs(
            vocab, batch, dim, buffers.a_indptr, a_indices, a_data,
            grad_h.reshape(-1), acc.reshape(-1),
        )  # A.T @ grad_h
        self.w_in += acc
        return loss / batch


class _Buffers:
    """Per-(batch size, context stride) constants and buffers of a step:
    A's and G's fixed-stride ``indptr``, the labels and loss signs, and
    the (B, d) context-mean buffer ``h``."""

    def __init__(
        self, batch: int, stride: int, dim: int, negatives: int, index_dtype
    ) -> None:
        width = 1 + negatives
        self.a_indptr = np.arange(0, batch * stride + 1, stride, dtype=index_dtype)
        self.g_indptr = np.arange(0, batch * width + 1, width, dtype=index_dtype)
        self.h = np.empty((batch, dim), dtype=np.float32)
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
