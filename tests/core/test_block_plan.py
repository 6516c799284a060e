"""Parity of the fused kernel's block plan with a per-batch step.

The trainer gathers and plans several batches at once
(``FusedCBOWNegativeSampling.plan_block``): the context mask, A's CSR
arrays and every batch's alias negatives in one pass, then one step per
batch. That must be bitwise the SGD of stepping batch by batch, so the
oracle below is the kernel's per-batch step written out on its own: a
fresh alias draw and fresh scipy matrices per batch. Weights, per-batch
losses and the generator's final state must all match exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core._math import MAX_EXP
from repro.core.fused import FusedCBOWNegativeSampling
from repro.core.trainer import TrainConfig, scheduled_lr, step_batches
from repro.walks.corpus import WalkCorpus, gather_windows

VOCAB, DIM, NEGATIVES, WINDOW = 23, 6, 3, 2


def _model(seed: int) -> FusedCBOWNegativeSampling:
    noise = np.random.default_rng(99).random(VOCAB) + 0.05
    return FusedCBOWNegativeSampling(
        VOCAB,
        DIM,
        noise / noise.sum(),
        negatives=NEGATIVES,
        rng=np.random.default_rng(seed),
    )


def _oracle_step(model, centers, contexts, lr, rng) -> float:
    """One batch: its own alias draw, its own three scipy matrices."""
    batch = centers.shape[0]
    shape = (batch, model.vocab_size)
    index_dtype = model._index_dtype
    mask = contexts >= 0
    counts = mask.sum(axis=1)
    indptr = np.zeros(batch + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    inv = np.float32(1.0) / counts.astype(np.float32)
    A = sparse.csr_matrix(
        (np.repeat(inv, counts), contexts[mask].astype(index_dtype), indptr),
        shape=shape,
    )
    h = A @ model.w_in
    negs = model._noise.sample(
        0, model.vocab_size, rng, shape=(batch, model.negatives)
    )
    targets = np.concatenate([centers[:, None], negs], axis=1)
    labels = np.zeros(targets.shape, dtype=np.float32)
    labels[:, 0] = 1.0
    sign = 1.0 - 2.0 * labels
    out_vecs = np.take(model.w_out, targets, axis=0)
    scores = (out_vecs @ h[:, :, None])[:, :, 0]
    np.clip(scores, -MAX_EXP, MAX_EXP, out=scores)
    loss = float(np.log1p(np.exp(sign * scores)).sum())
    np.negative(scores, out=scores)
    np.exp(scores, out=scores)
    scores += np.float32(1.0)
    np.reciprocal(scores, out=scores)
    np.subtract(labels, scores, out=scores)
    scores *= np.float32(lr)
    g = scores
    grad_h = (g[:, None, :] @ out_vecs)[:, 0, :]
    width = targets.shape[1]
    G_T = sparse.csc_matrix(
        (
            g.ravel(),
            targets.ravel().astype(index_dtype),
            np.arange(0, batch * width + 1, width, dtype=index_dtype),
        ),
        shape=shape[::-1],
    )
    model.w_out += G_T @ h
    model.w_in += A.T @ grad_h
    return loss / batch


def _assert_same(a, b, rng_a, rng_b, losses_a, losses_b) -> None:
    assert losses_a == losses_b
    assert np.array_equal(a.w_in, b.w_in)
    assert np.array_equal(a.w_out, b.w_out)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def _examples(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    centers = rng.integers(0, VOCAB, n)
    contexts = rng.integers(-1, VOCAB, (n, 2 * WINDOW))
    contexts[:, 0] = rng.integers(0, VOCAB, n)  # at least one real context
    return centers, contexts


@given(
    n=st.integers(1, 120),
    batch_size=st.integers(1, 17),
    blocks=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_blocks_match_batch_by_batch(n, batch_size, blocks, seed):
    """Any split of a run into blocks of whole batches, a partial batch
    last, steps bitwise like one batch at a time."""
    centers, contexts = _examples(seed, n)
    planned, oracle = _model(seed), _model(seed)
    rng_p, rng_o = np.random.default_rng(seed), np.random.default_rng(seed)
    losses_p: list[float] = []
    losses_o: list[float] = []
    lo, i = 0, 0
    while lo < n:
        hi = min(n, lo + blocks[i % len(blocks)] * batch_size)
        for _, step in planned.plan_block(
            centers[lo:hi], contexts[lo:hi], batch_size, rng_p
        ):
            losses_p.append(step(0.05))
        lo, i = hi, i + 1
    for lo in range(0, n, batch_size):
        sl = slice(lo, lo + batch_size)
        losses_o.append(_oracle_step(oracle, centers[sl], contexts[sl], 0.05, rng_o))
    _assert_same(planned, oracle, rng_p, rng_o, losses_p, losses_o)


@given(
    walks=st.integers(1, 30),
    length=st.integers(2, 12),
    batch_size=st.integers(1, 40),
    shuffle=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_step_batches_matches_batch_by_batch(walks, length, batch_size, shuffle, seed):
    """The trainer's epoch over a permuted (or in-order) run of example
    positions equals the oracle over the same examples in the same order,
    including the learning-rate schedule."""
    corpus = WalkCorpus(
        np.random.default_rng(seed).integers(0, VOCAB, (walks, length)),
        num_vertices=VOCAB,
    )
    config = TrainConfig(
        dim=DIM, window=WINDOW, negatives=NEGATIVES, batch_size=batch_size,
        shuffle=shuffle, epochs=1,
    )
    padded = corpus.padded_walks(WINDOW)
    positions = corpus.example_positions(WINDOW)
    total = -(-positions.shape[0] // batch_size)

    planned, rng_p = _model(seed), np.random.default_rng(seed)
    losses_p: list[float] = []
    run = positions.copy()
    if shuffle:
        rng_p.shuffle(run)  # the in-process epoch's in-place shuffle
    step_batches(
        planned,
        padded,
        run,
        config,
        rng_p,
        0,
        total,
        on_batch=lambda loss, _examples: losses_p.append(loss),
    )

    oracle, rng_o = _model(seed), np.random.default_rng(seed)
    order = rng_o.permutation(positions.shape[0]) if shuffle else slice(None)
    centers, contexts = gather_windows(padded, positions[order], WINDOW)
    losses_o = [
        _oracle_step(
            oracle,
            centers[lo : lo + batch_size],
            contexts[lo : lo + batch_size],
            scheduled_lr(config, i, total),
            rng_o,
        )
        for i, lo in enumerate(range(0, centers.shape[0], batch_size))
    ]
    _assert_same(planned, oracle, rng_p, rng_o, losses_p, losses_o)
