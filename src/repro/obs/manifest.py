"""Run manifest: one JSON artifact describing a whole observed run.

The manifest is the machine-consumable summary a run leaves behind —
what was run (config fingerprint), where (host), and what came out
(the final value of every metric). ``scripts/bench_report.py`` consumes
it instead of re-measuring, and CI fails a build whose manifest is
missing :data:`REQUIRED_KEYS`.

The schema is versioned (``schema_version``) so bench trajectories stay
comparable across PRs; additive changes keep the version, breaking
changes bump it.

Every manifest carries a terminal ``status`` — ``"completed"``,
``"interrupted"`` (cooperative cancellation / deadline expiry; see
:mod:`repro.resilience.lifecycle`), or ``"failed"`` — plus an
``interrupt_reason`` for the non-completed cases, so ``repro report``
and the chaos harness can tell a clean run from a wound-down one
without parsing the event stream. Additive fields: schema version 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SCHEMA_VERSION",
    "REQUIRED_KEYS",
    "RUN_STATUSES",
    "ManifestError",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "validate_manifest",
    "host_info",
    "config_fingerprint",
]

SCHEMA_VERSION = 1
MANIFEST_KIND = "repro-run-manifest"
REQUIRED_KEYS = ("schema_version", "kind", "created_unix", "host", "config", "metrics")

#: Terminal run states. ``interrupted`` covers cooperative cancellation
#: (signal) and deadline expiry; the distinction lives in
#: ``interrupt_reason`` and the process exit code (130 vs 124).
RUN_STATUSES = ("completed", "interrupted", "failed")


class ManifestError(ValueError):
    """The manifest file is missing, malformed, or fails validation."""


def host_info() -> dict[str, Any]:
    """Machine identity recorded alongside every throughput number."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        affinity = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def config_fingerprint(config: dict) -> str:
    """Short stable hash of a run configuration (order-insensitive)."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def build_manifest(
    registry: MetricsRegistry,
    *,
    run_config: dict | None = None,
    events_path: str | Path | None = None,
    status: str = "completed",
    interrupt_reason: str | None = None,
    stage_reports: list[dict] | None = None,
    profiles: dict[str, dict] | None = None,
    pressure: list[dict] | None = None,
) -> dict[str, Any]:
    """Assemble the manifest dict.

    ``stage_reports`` is the per-stage resource ledger
    (:mod:`repro.obs.resources` deltas recorded by ``Pipeline.execute``),
    ``profiles`` the collapsed-stack summaries from
    :mod:`repro.obs.profiler`, and ``pressure`` the resource-watchdog
    sample timeline from :mod:`repro.resilience.guard` — all additive,
    schema version unchanged.
    """
    if status not in RUN_STATUSES:
        raise ManifestError(f"status must be one of {RUN_STATUSES}, got {status!r}")
    config = run_config or {}
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": MANIFEST_KIND,
        "created_unix": round(time.time(), 3),
        "host": host_info(),
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "metrics": registry.snapshot(),
        "events_path": str(events_path) if events_path is not None else None,
        "status": status,
        "interrupt_reason": interrupt_reason,
        "stage_reports": stage_reports or [],
        "profiles": profiles or {},
        "pressure": pressure or [],
    }


def write_manifest(path: str | Path, manifest: dict[str, Any]) -> dict[str, Any]:
    """Atomically write a :func:`build_manifest` dict; returns it.

    The write rides :func:`repro.resilience.checkpoint.atomic_write_bytes`,
    so a manifest on a full disk gets the same reclaim-and-retry and
    typed ``DiskFull`` behaviour as a checkpoint.
    """
    from repro.resilience.checkpoint import atomic_write_bytes

    atomic_write_bytes(
        path, (json.dumps(manifest, indent=2, default=str) + "\n").encode()
    )
    return manifest


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read and validate a manifest written by :func:`write_manifest`."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"no manifest at {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    validate_manifest(manifest)
    return manifest


def validate_manifest(manifest: Any) -> None:
    """Raise :class:`ManifestError` unless all required keys are present."""
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    missing = [key for key in REQUIRED_KEYS if key not in manifest]
    if missing:
        raise ManifestError(f"manifest is missing required keys: {missing}")
    if manifest["kind"] != MANIFEST_KIND:
        raise ManifestError(
            f"not a run manifest (kind={manifest['kind']!r})"
        )
    metrics = manifest["metrics"]
    if not isinstance(metrics, dict) or not {
        "counters",
        "gauges",
        "histograms",
    } <= set(metrics):
        raise ManifestError(
            "manifest metrics must contain counters/gauges/histograms"
        )
