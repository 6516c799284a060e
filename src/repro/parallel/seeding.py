"""Deterministic, statistically independent random streams for workers.

Follows the numpy guidance: never hand the same seed to multiple workers;
spawn child ``SeedSequence``s instead, which are guaranteed independent
and reproducible from the parent entropy.
"""

from __future__ import annotations

import numpy as np

# numpy loads numpy.random on first use; every caller here needs it, so
# load it with this module rather than inside a caller's first draw.
from numpy.random import SeedSequence, default_rng

__all__ = ["spawn_seeds", "spawn_generators", "worker_seed_sequence"]


def spawn_seeds(
    seed: int | np.random.SeedSequence | None, count: int
) -> list[np.random.SeedSequence]:
    """``count`` independent child seed sequences from one parent seed."""
    if count < 0:
        raise ValueError("count must be non-negative")
    parent = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    return parent.spawn(count)


def worker_seed_sequence(
    entropy, *key: int
) -> np.random.SeedSequence:
    """An addressable child stream: ``entropy`` + a structured spawn key.

    Unlike :func:`spawn_seeds`, whose children depend on spawn *order*,
    the spawn key here is explicit — ``worker_seed_sequence(e, epoch, w)``
    names the same independent stream no matter how many other streams
    were created first. The Hogwild trainer keys streams by
    ``(epoch, worker)`` so a resumed run replays the exact seeds of the
    epochs it re-executes.
    """
    return SeedSequence(entropy=entropy, spawn_key=tuple(int(k) for k in key))


def spawn_generators(
    seed: int | np.random.SeedSequence | None, count: int
) -> list[np.random.Generator]:
    """``count`` independent PCG64 generators from one parent seed."""
    return [default_rng(s) for s in spawn_seeds(seed, count)]
