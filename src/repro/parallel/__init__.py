"""Parallel execution utilities: seeding, chunking, pool map, shared memory."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "seeding": ("spawn_seeds", "spawn_generators", "worker_seed_sequence"),
        "pool": ("chunk_bounds", "default_workers", "parallel_map", "resolve_workers"),
        "shm": ("SharedArray", "SharedArraySpec", "shared_arrays"),
    },
)
