"""Constrained random-walk engine (Section II-A of the paper).

Walks advance in structure-of-arrays form: one vectorized step moves every
active walk simultaneously, so generating ``t * |V|`` walks of length ``l``
costs ``l`` numpy passes instead of ``t * |V| * l`` Python iterations.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "alias": ("AliasTable", "build_arc_alias"),
        "corpus": ("WalkCorpus",),
        "engine": ("RandomWalkConfig", "WalkMode", "generate_walks"),
        "stats": ("CorpusStats", "corpus_stats", "crossing_rate"),
    },
)
