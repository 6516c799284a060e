"""Datasets: the paper's synthetic community benchmark and the synthetic
OpenFlights substitute (see DESIGN.md §3 for the substitution rationale).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "synthetic": ("community_benchmark", "alpha_sweep"),
        "karate": ("karate_club",),
        "openflights": ("synthetic_openflights", "OpenFlightsSpec", "CONTINENTS"),
    },
)
