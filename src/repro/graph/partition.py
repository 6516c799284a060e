"""Vertex partitioning for the out-of-core graph store.

A partition assigns every vertex to one of ``num_parts`` shards; the
store then relabels vertices so each shard owns a *contiguous* id range
(``contiguous_relabel``), which is what lets a shard's walk stepper run
over a single mmap'd CSR row range. Two placement strategies plus a
trivial baseline:

- ``"bfs"`` (default) — vertices in BFS discovery order (component by
  component), chopped into near-equal contiguous chunks. Neighbors tend
  to land in the same shard, so walks cross shard boundaries rarely.
- ``"label_propagation"`` — communities from
  :func:`repro.community.label_propagation_communities` packed into
  balanced parts (greedy largest-community-first bin packing). Best
  locality on graphs with strong community structure.
- ``"contiguous"`` — keep the existing vertex order and cut it into
  equal ranges. No locality claim; useful as a control and for graphs
  whose ids already encode locality.

Placement never affects results: the walk engine draws each step from
a counter-based stream keyed by (seed, walk, step), so the corpus is
identical for every partitioning.

Layering: this module may use ``repro.graph`` and ``repro.community``
(via a function-local import — community sits above graph in the layer
DAG) but never ``repro.walks`` or ``repro.pipeline``
(``scripts/check_import_cycles.py`` enforces it).
"""

from __future__ import annotations

import numpy as np

from repro.graph.traversal import bfs_order

__all__ = [
    "PARTITION_METHODS",
    "partition_vertices",
    "contiguous_relabel",
    "shard_of",
]

PARTITION_METHODS = ("bfs", "label_propagation", "contiguous")


def partition_vertices(
    g,
    num_parts: int,
    *,
    method: str = "bfs",
    seed: int | None = None,
) -> np.ndarray:
    """Assign every vertex to a shard; returns int64 membership of length n.

    ``num_parts`` is clamped to ``n`` (a shard must own at least one
    vertex when any exist). Every method produces parts whose sizes
    differ by at most the largest packed unit (1 vertex for bfs /
    contiguous, one community for label propagation).
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if method not in PARTITION_METHODS:
        raise ValueError(
            f"unknown partition method {method!r} (expected one of "
            f"{PARTITION_METHODS})"
        )
    n = int(g.n)
    num_parts = min(num_parts, n) if n else 1
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if num_parts == 1:
        return np.zeros(n, dtype=np.int64)
    if method == "contiguous":
        return _chunk_membership(np.arange(n, dtype=np.int64), num_parts, n)
    if method == "bfs":
        return _chunk_membership(_global_bfs_order(g), num_parts, n)
    return _pack_communities(g, num_parts, seed=seed)


def _global_bfs_order(g) -> np.ndarray:
    """BFS discovery order covering every component (lowest seed first)."""
    n = int(g.n)
    seen = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    filled = 0
    for source in range(n):
        if seen[source]:
            continue
        comp = bfs_order(g, source)
        comp = comp[~seen[comp]]
        seen[comp] = True
        order[filled : filled + comp.size] = comp
        filled += comp.size
    return order


def _chunk_membership(order: np.ndarray, num_parts: int, n: int) -> np.ndarray:
    """Cut ``order`` into near-equal chunks; chunk index = shard id."""
    bounds = np.linspace(0, n, num_parts + 1).astype(np.int64)
    membership = np.empty(n, dtype=np.int64)
    for part in range(num_parts):
        membership[order[bounds[part] : bounds[part + 1]]] = part
    return membership


def _pack_communities(g, num_parts: int, *, seed: int | None) -> np.ndarray:
    """Label-propagation communities, greedily packed into balanced parts."""
    # Function-local: community sits above graph in the layer DAG.
    from repro.community.label_propagation import label_propagation_communities

    target = g.to_undirected() if g.directed else g
    labels = label_propagation_communities(target, seed=seed)
    comm_ids, sizes = np.unique(labels, return_counts=True)
    # Largest community first into the currently-lightest part: classic
    # LPT bin packing, deterministic given the community labelling.
    order = np.argsort(sizes, kind="stable")[::-1]
    loads = np.zeros(num_parts, dtype=np.int64)
    part_of_comm = np.empty(comm_ids.size, dtype=np.int64)
    for i in order:
        part = int(np.argmin(loads))
        part_of_comm[i] = part
        loads[part] += sizes[i]
    lookup = np.empty(int(comm_ids.max()) + 1, dtype=np.int64)
    lookup[comm_ids] = part_of_comm
    return lookup[labels]


def contiguous_relabel(
    membership: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Relabel vertices so every shard owns a contiguous new-id range.

    Returns ``(perm, bounds)``:

    - ``perm`` — int64 permutation mapping *new* id → *original* id
      (so ``original_array[perm]`` reorders per-vertex data into the new
      id space). Within a shard, original order is preserved (stable).
    - ``bounds`` — int64 array of length ``num_parts + 1``;
      shard ``s`` owns new ids ``bounds[s]:bounds[s + 1]``.
    """
    membership = np.asarray(membership, dtype=np.int64)
    if membership.size and membership.min() < 0:
        raise ValueError("membership must be non-negative")
    num_parts = int(membership.max()) + 1 if membership.size else 1
    perm = np.argsort(membership, kind="stable").astype(np.int64)
    counts = np.bincount(membership, minlength=num_parts)
    bounds = np.zeros(num_parts + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return perm, bounds


def shard_of(bounds: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Shard id for each (new-space) vertex id, via the bounds array."""
    return np.searchsorted(bounds, vertices, side="right") - 1
