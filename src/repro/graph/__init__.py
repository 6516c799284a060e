"""Graph substrate: CSR-backed graphs, generators, traversal, metrics, I/O.

This subpackage implements the graph layer that V2V operates on. Every
structure is stored in flat, contiguous numpy arrays (CSR adjacency) so
that the random-walk engine and the community-detection baselines can run
vectorized over the whole vertex set.

Two backends satisfy the :class:`GraphView` protocol: the in-memory
:class:`Graph` and the out-of-core :class:`GraphStore` (a build-once,
memory-mapped CSR partitioned into shards — see
:mod:`repro.graph.store` / :mod:`repro.graph.partition` and
docs/scaling.md). Engine layers consume views, not concrete classes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core": ("Graph", "EdgeList"),
        "view": ("GraphView", "is_graph_view"),
        "store": ("GraphStore", "StoreCorrupt"),
        "partition": (
            "PARTITION_METHODS",
            "partition_vertices",
            "contiguous_relabel",
            "shard_of",
        ),
        "generators": (
            "planted_partition",
            "erdos_renyi",
            "barabasi_albert",
            "stochastic_block_model",
            "random_geometric",
            "complete_graph",
            "cycle_graph",
            "path_graph",
            "star_graph",
            "grid_graph",
        ),
        "traversal": (
            "bfs_order",
            "bfs_distances",
            "dfs_order",
            "connected_components",
            "is_connected",
            "shortest_path_lengths",
            "edge_betweenness",
        ),
        "lfr": ("lfr_benchmark",),
        "perturb": ("drop_edges", "add_noise_edges", "rewire_edges"),
        "metrics": (
            "density",
            "modularity",
            "average_clustering",
            "global_clustering",
            "triangle_count",
            "degree_assortativity",
        ),
    },
)
