"""Benchmark harness: timers, experiment records, table/series printers."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "harness": (
            "Timer",
            "ExperimentRecord",
            "format_table",
            "format_series",
            "write_records_csv",
        ),
    },
)
