"""Visualization substrate: force-directed layout, projections, renderers.

No plotting library ships in this environment, so figures are produced
as (a) coordinate tables (CSV) and (b) ASCII scatter plots — the *data*
of each paper figure, which is what the benches verify quantitatively.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "forceatlas": ("ForceAtlasLayout", "force_atlas_layout"),
        "projection": (
            "pca_projection",
            "cluster_boundaries",
            "separation_ratio",
            "projection_to_csv",
        ),
        "ascii": ("render_scatter", "render_series"),
    },
)
