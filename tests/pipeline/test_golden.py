"""Golden determinism: a fixed-seed run must never drift.

The committed checksum below pins the exact bytes of the embedding a
fixed-seed ``V2V.fit`` produces on a planted-partition graph. Any change
to walk generation, training order, seeding, or the pipeline plumbing
that alters the numbers — even in the last bit — fails this test. CI
runs it in the bench-smoke job as the release gate for refactors that
claim to be behavior-preserving.

If a change *intentionally* alters the numerics (a new objective, a
fixed bug in the sampler), regenerate the checksum and commit it with
the change::

    REPRO_GOLDEN_PRINT=1 PYTHONPATH=src python -m pytest \
        tests/pipeline/test_golden.py -s

and paste the printed digest into ``GOLDEN_SHA256``.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro import V2V, V2VConfig
from repro.graph.generators import planted_partition

GOLDEN_SHA256 = "527520505ee6ccae824959a3b3c5aa835035a4e1d132e088d5666654d0888cc8"


def _golden_digest() -> str:
    graph = planted_partition(n=120, groups=4, alpha=0.7, inter_edges=60, seed=11)
    config = V2VConfig(
        dim=16, window=4, walks_per_vertex=4, walk_length=20, epochs=3, seed=42
    )
    model = V2V(config).fit(graph)
    vectors = np.ascontiguousarray(np.asarray(model.vectors, dtype=np.float64))
    return hashlib.sha256(vectors.tobytes()).hexdigest()


def test_fixed_seed_embedding_is_bitwise_stable():
    digest = _golden_digest()
    if os.environ.get("REPRO_GOLDEN_PRINT"):
        print(f"\ngolden digest: {digest}")
    assert digest == GOLDEN_SHA256, (
        "fixed-seed embedding drifted from the committed golden checksum; "
        "if the numeric change is intentional, regenerate with "
        "REPRO_GOLDEN_PRINT=1 (see module docstring)"
    )


def test_two_runs_in_one_process_are_identical():
    assert _golden_digest() == _golden_digest()
