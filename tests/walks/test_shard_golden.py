"""The walk golden: one corpus checksum for every backend and layout.

The committed checksum pins the exact bytes of the walk corpus at a
fixed seed on the same planted-partition graph the pipeline golden test
uses. Draws are counter-based per-(walk, step) hashes, so the digest
must be identical for the in-memory graph at any worker count, for a
checkpointed run at any chunk count, and for a graph store at any shard
and worker count (the determinism contract in
:mod:`repro.walks.engine`). The parametrized cases prove the invariance;
the constant pins the stream itself against drift (a changed mixer, key
derivation or row layout all fail here, even if they remain
self-consistent).

To regenerate after an *intentional* change to the draw stream::

    REPRO_GOLDEN_PRINT=1 PYTHONPATH=src python -m pytest \
        tests/walks/test_shard_golden.py -s

and paste the printed digest into ``SHARD_GOLDEN_SHA256``.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.graph.generators import planted_partition
from repro.graph.store import GraphStore
from repro.pipeline.context import ExecutionContext
from repro.walks.engine import RandomWalkConfig, generate_walks

SHARD_GOLDEN_SHA256 = (
    "6cdc340b7a2889f9e005c2aeeca8bcba003a99d43282c2421622e75736d0c926"
)

CONFIG = RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=42)


def _graph():
    return planted_partition(n=120, groups=4, alpha=0.7, inter_edges=60, seed=11)


def _check(corpus, case: str) -> None:
    walks = np.ascontiguousarray(corpus.walks, dtype=np.int64)
    digest = hashlib.sha256(walks.tobytes()).hexdigest()
    if os.environ.get("REPRO_GOLDEN_PRINT"):
        print(f"\nwalk golden digest ({case}): {digest}")
    assert digest == SHARD_GOLDEN_SHA256, (
        f"walk corpus ({case}) drifted from the committed golden checksum; "
        "if the change to the draw stream is intentional, regenerate with "
        "REPRO_GOLDEN_PRINT=1 (see module docstring)"
    )


@pytest.mark.parametrize(
    "shards,workers", [(1, 1), (2, 1), (4, 1), (1, 2), (2, 2), (4, 2)]
)
def test_sharded_corpus_matches_golden_checksum(tmp_path, shards, workers):
    store = GraphStore.build(
        _graph(), tmp_path / f"store-{shards}-{workers}", shards=shards, seed=3
    )
    corpus = generate_walks(
        store, CONFIG, context=ExecutionContext(workers=workers)
    )
    _check(corpus, f"store, {shards} shards, {workers} workers")


@pytest.mark.parametrize("workers", [1, 2])
def test_in_memory_corpus_matches_golden_checksum(workers):
    corpus = generate_walks(
        _graph(), CONFIG, context=ExecutionContext(workers=workers)
    )
    _check(corpus, f"in memory, {workers} workers")


@pytest.mark.parametrize("chunks", [2, 4])
def test_checkpointed_corpus_matches_golden_checksum(tmp_path, chunks):
    corpus = generate_walks(
        _graph(),
        CONFIG,
        context=ExecutionContext(checkpoint_dir=tmp_path),
        checkpoint_chunks=chunks,
    )
    _check(corpus, f"checkpointed, {chunks} chunks")
