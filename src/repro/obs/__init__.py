"""repro.obs — pipeline telemetry: logging, metrics, tracing, manifests.

The observability subsystem every pipeline layer reports through:

- :mod:`repro.obs.logging` — structured events, human + JSONL sinks.
- :mod:`repro.obs.metrics` — counters / gauges / histograms / timers.
- :mod:`repro.obs.recorder` — the per-run hub: phase-scoped spans over
  the event stream, the session lifecycle, and the no-op default.
- :mod:`repro.obs.slab` — shared-memory per-worker metric rows.
- :mod:`repro.obs.manifest` — the schema-versioned run manifest.
- :mod:`repro.obs.report` — human rendering (``repro report``).
- :mod:`repro.obs.profiler` — opt-in sampling profiler (collapsed stacks).
- :mod:`repro.obs.resources` — per-stage RSS/CPU/GC/allocation deltas.
- :mod:`repro.obs.export` — Chrome Trace Event export (Perfetto).
- :mod:`repro.obs.live` — live status file + the ``repro top`` monitor.

Instrumented code does::

    from repro.obs import current_recorder

    rec = current_recorder()          # NULL_RECORDER unless installed
    with rec.span("walks.generate", n=g.n):
        ...
        rec.inc("walks.total", corpus.num_walks)

and pays near-zero cost when observability is off (see
docs/observability.md and the overhead guard benchmark).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "logging": (
            "StructuredLogger",
            "get_logger",
            "configure_logging",
            "teardown_logging",
            "JsonlFormatter",
            "HumanFormatter",
            "parse_jsonl",
        ),
        "metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
        ),
        "recorder": (
            "ObsConfig",
            "Span",
            "Recorder",
            "NullRecorder",
            "NULL_RECORDER",
            "current_recorder",
            "install",
            "use",
            "session",
        ),
        "slab": ("MetricsSlab", "MetricsSlabSpec", "HOGWILD_SLOTS"),
        "manifest": (
            "SCHEMA_VERSION",
            "REQUIRED_KEYS",
            "ManifestError",
            "build_manifest",
            "write_manifest",
            "load_manifest",
            "validate_manifest",
        ),
        "profiler": ("SamplingProfiler", "StackProfile"),
        "resources": ("ResourceSnapshot", "resource_delta"),
        "export": ("chrome_trace", "write_chrome_trace", "validate_chrome_trace"),
        "live": ("LiveStatusFile", "read_status", "render_top", "top_command"),
    },
)
