"""The pipeline's telemetry hub: one Recorder per run, or the no-op.

A :class:`Recorder` bundles the observability primitives — structured
logger, metrics registry, phase spans — behind a single handle that
instrumented code fetches with :func:`current_recorder`. When no
recorder is installed (the default), the shared :data:`NULL_RECORDER`
comes back and every call is a no-op; embedding quality and RNG streams
are untouched either way (the bitwise-identity tests assert this).

A :class:`Span` marks one pipeline phase — walk generation, a training
epoch, a k-means fit — with a ``span.begin``/``span.end`` event pair in
the JSONL stream and its duration observed into the
``span.<name>.seconds`` histogram. Spans nest: the recorder keeps the
open-span stack, and each span carries its parent's name path, so the
stream reconstructs the phase tree (``pipeline.fit > walks.generate >
...``) without any global collector. Span ids are process-local
integers, deliberately not distributed trace ids: the pipeline is one
process tree and the JSONL file is the single sink.

Install scopes:

- :func:`use` — context manager installing a recorder for a block
  (library embedding, tests).
- :func:`session` — the full run lifecycle the CLI uses: configure log
  sinks from an :class:`ObsConfig`, install a recorder, and on exit
  write the run manifest and detach the sinks.

Fork safety: worker processes inherit the parent's module globals, so a
recorder pins its creating PID and :func:`current_recorder` returns the
no-op in any other process. Cross-process telemetry therefore flows
through explicit channels only — the :mod:`repro.obs.slab` metrics slab
and values returned from worker tasks — never through accidentally
shared file handles (which would interleave torn JSONL lines).
"""

from __future__ import annotations

import contextlib
import itertools
import logging as _stdlib_logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.obs.logging import (
    StructuredLogger,
    configure_logging,
    get_logger,
    teardown_logging,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import DEFAULT_HZ, StackProfile

__all__ = [
    "ObsConfig",
    "Span",
    "NULL_SPAN",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "install",
    "use",
    "session",
]


@dataclass(frozen=True)
class ObsConfig:
    """Declarative observability settings (CLI flags / ``ExecutionContext``).

    ``enabled=False`` is the hard opt-out: no recorder is installed at
    all. ``trace=True`` additionally mirrors span begin/end events to
    the human sink (they always go to the JSONL sink when one exists).
    ``metrics_out`` is where :func:`session` writes the run manifest.
    ``profile=True`` arms the sampling profiler
    (:mod:`repro.obs.profiler`) at ``profile_hz``: per-stage collapsed
    stacks in the parent plus per-pooled-worker profiles collected
    through the environment, all landing in the manifest's ``profiles``
    section. ``status_path`` keeps a live status document
    (:mod:`repro.obs.live`) up to date for ``repro top``.
    """

    enabled: bool = True
    log_level: str = "info"
    log_json: str | None = None
    metrics_out: str | None = None
    trace: bool = False
    profile: bool = False
    profile_hz: float = DEFAULT_HZ
    status_path: str | None = None

    def __post_init__(self) -> None:
        if self.log_level not in ("debug", "info", "warning", "error"):
            raise ValueError("log_level must be debug|info|warning|error")
        if self.profile_hz <= 0:
            raise ValueError("profile_hz must be > 0")


class Span:
    """Context manager for one phase; emits begin/end events.

    ``attrs`` ride on both events; anything set via :meth:`annotate`
    inside the block rides on the end event only (e.g. a loss computed
    mid-phase). An exception inside the block marks the end event with
    ``status="error"`` and the exception repr, then propagates.
    """

    __slots__ = ("recorder", "name", "attrs", "span_id", "parent", "_start", "seconds")

    def __init__(
        self, recorder: "Recorder", name: str, parent: "Span | None", attrs: dict
    ) -> None:
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self.span_id = next(recorder._span_ids)
        self._start = 0.0
        self.seconds = 0.0

    @property
    def path(self) -> str:
        return f"{self.parent.path}>{self.name}" if self.parent else self.name

    def annotate(self, **attrs: Any) -> None:
        """Attach fields to the span's end event."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        self.recorder._spans.append(self)
        self.recorder.log.debug(
            "span.begin",
            span=self.name,
            span_id=self.span_id,
            parent_id=self.parent.span_id if self.parent else None,
            path=self.path,
            **self.attrs,
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._start
        stack = self.recorder._spans
        if stack and stack[-1] is self:
            stack.pop()
        self.recorder.registry.observe(f"span.{self.name}.seconds", self.seconds)
        fields: dict[str, Any] = {
            "span": self.name,
            "span_id": self.span_id,
            "path": self.path,
            "seconds": round(self.seconds, 6),
            "status": "error" if exc is not None else "ok",
            **self.attrs,
        }
        if exc is not None:
            fields["exception"] = repr(exc)
        self.recorder.log.info("span.end", **fields)


class _NullSpan:
    """Inert span and timer of the disabled path; shared singleton."""

    __slots__ = ()
    name = ""
    seconds = 0.0

    def annotate(self, **attrs: Any) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class Recorder:
    """Live telemetry: logger + metrics + the open-span stack, PID-pinned."""

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        logger: StructuredLogger | None = None,
        profile_hz: float | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.log = logger if logger is not None else get_logger()
        self._spans: list[Span] = []
        self._span_ids = itertools.count(1)
        self.pid = os.getpid()
        #: Sampling rate for the per-stage profiler; None = profiling off.
        self.profile_hz = profile_hz
        #: Collapsed-stack profiles keyed by name (stage.<name>, workers).
        self.profiles: dict[str, StackProfile] = {}
        #: Per-stage resource ledger rows appended by Pipeline.execute.
        self.stage_reports: list[dict] = []
        #: Pressure-watchdog samples (repro.resilience.guard); the
        #: manifest keeps them under "pressure".
        self.pressure_records: list[dict] = []
        #: Live status document for `repro top`; set by session().
        self.live = None

    # Events ------------------------------------------------------------
    def event(self, name: str, /, *, level: str = "info", **fields: Any) -> None:
        """Emit one structured event to every configured sink."""
        self.log.log(
            getattr(_stdlib_logging, level.upper()), name, **fields
        )

    # Spans ---------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A span nested under the innermost open one, if any."""
        parent = self._spans[-1] if self._spans else None
        return Span(self, name, parent, attrs)

    # Metrics (delegation keeps call sites one-liner) ---------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.registry.inc(name, amount)

    def set(self, name: str, value: float) -> None:
        self.registry.set(name, value)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)

    def time(self, name: str):
        return self.registry.time(name)

    # Performance observability ------------------------------------------
    def add_profile(self, name: str, profile: StackProfile) -> None:
        """Merge a collapsed-stack profile under ``name`` (accumulating)."""
        existing = self.profiles.get(name)
        if existing is None:
            self.profiles[name] = profile
        else:
            existing.merge(profile)

    def add_stage_report(self, report: dict) -> None:
        """Append one per-stage resource row (Pipeline.execute calls this)."""
        self.stage_reports.append(report)

    def add_pressure_record(self, record: dict) -> None:
        """Append one watchdog sample (PressureWatchdog calls this)."""
        self.pressure_records.append(record)

    def profile_summaries(self) -> dict[str, dict]:
        return {name: prof.summary() for name, prof in self.profiles.items()}


class NullRecorder:
    """Inert recorder: the disabled path. All methods are no-ops;
    :meth:`span` and :meth:`time` both hand back :data:`NULL_SPAN`."""

    enabled = False
    pid = -1
    profile_hz = None
    live = None

    def event(self, name: str, /, *, level: str = "info", **fields: Any) -> None:
        return None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def inc(self, name: str, amount: float = 1.0) -> None:
        return None

    def set(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def time(self, name: str) -> _NullSpan:
        return NULL_SPAN

    def add_profile(self, name: str, profile: Any) -> None:
        return None

    def add_stage_report(self, report: dict) -> None:
        return None

    def add_pressure_record(self, record: dict) -> None:
        return None

    def profile_summaries(self) -> dict[str, dict]:
        return {}


def _classify_exit(exc: BaseException) -> tuple[str, str]:
    """Map the exception escaping a session to a manifest status.

    Cooperative shutdown (``RunInterrupted``) and a raw Ctrl-C are both
    ``interrupted`` — the run wound down on purpose; anything else is a
    genuine ``failed``. Lazy import: resilience imports obs, so the
    reverse edge must stay function-local.
    """
    from repro.resilience.lifecycle import RunInterrupted

    if isinstance(exc, RunInterrupted):
        return "interrupted", exc.reason
    if isinstance(exc, KeyboardInterrupt):
        return "interrupted", "keyboard_interrupt"
    return "failed", type(exc).__name__


NULL_RECORDER = NullRecorder()

_current: Recorder | NullRecorder = NULL_RECORDER


def current_recorder() -> Recorder | NullRecorder:
    """The active recorder, or the no-op if none / wrong process.

    The PID check makes forked pool workers observe the no-op even
    though they inherit the parent's module state — their telemetry
    travels through explicit slabs/return values instead.
    """
    rec = _current
    if rec.enabled and rec.pid != os.getpid():
        return NULL_RECORDER
    return rec


def install(recorder: Recorder | NullRecorder | None) -> None:
    """Set (or with ``None`` clear) the process-wide recorder."""
    global _current
    _current = recorder if recorder is not None else NULL_RECORDER


@contextlib.contextmanager
def use(recorder: Recorder | NullRecorder) -> Iterator[Recorder | NullRecorder]:
    """Install ``recorder`` for the duration of the block."""
    previous = _current
    install(recorder)
    try:
        yield recorder
    finally:
        install(previous)


@contextlib.contextmanager
def session(
    config: ObsConfig | None,
    *,
    run_config: dict | None = None,
    stream=None,
) -> Iterator[Recorder | NullRecorder]:
    """One observed run: sinks up, recorder installed, manifest out.

    ``run_config`` is the caller's configuration fingerprint — it lands
    verbatim in the manifest so a metrics file is self-describing.
    ``stream`` overrides the human sink (tests pass a StringIO). With
    ``config=None`` or ``enabled=False`` the block runs with the no-op
    recorder and nothing is written.
    """
    if config is None or not config.enabled:
        with use(NULL_RECORDER):
            yield NULL_RECORDER
        return

    handlers = configure_logging(
        config.log_level, json_path=config.log_json, stream=stream
    )
    recorder = Recorder(profile_hz=config.profile_hz if config.profile else None)
    if config.trace:
        # Mirror span events on the human sink too: drop its bar to DEBUG.
        for handler in handlers:
            handler.setLevel(_stdlib_logging.DEBUG)
    profile_scope = _worker_profiling(config) if config.profile else None
    if config.status_path is not None:
        from repro.obs.live import LiveStatusFile

        recorder.live = LiveStatusFile(config.status_path)
        recorder.live.update(
            command=(run_config or {}).get("command"),
            metrics_out=config.metrics_out,
        )
    try:
        with use(recorder):
            recorder.event(
                "run.begin",
                pid=os.getpid(),
                log_json=config.log_json,
                metrics_out=config.metrics_out,
                profile=config.profile,
            )
            status, reason = "completed", None
            try:
                yield recorder
            except BaseException as exc:
                status, reason = _classify_exit(exc)
                raise
            finally:
                if profile_scope is not None:
                    profile_scope.collect(recorder)
                if recorder.live is not None:
                    recorder.live.update(status=status, interrupt_reason=reason)
                recorder.event(
                    "run.end", status=status, **({"reason": reason} if reason else {})
                )
                if config.metrics_out is not None:
                    from repro.obs.manifest import build_manifest, write_manifest

                    write_manifest(
                        Path(config.metrics_out),
                        build_manifest(
                            recorder.registry,
                            run_config=run_config,
                            events_path=config.log_json,
                            status=status,
                            interrupt_reason=reason,
                            stage_reports=recorder.stage_reports,
                            profiles=recorder.profile_summaries(),
                            pressure=recorder.pressure_records,
                        ),
                    )
    finally:
        teardown_logging(handlers)


class _WorkerProfileScope:
    """Environment-armed worker profiling for one observability session.

    Exports ``REPRO_PROFILE_DIR``/``REPRO_PROFILE_HZ`` into a fresh
    temporary directory *before* worker processes fork (persistent pools
    are shut down so the next map pays a re-fork and inherits the env),
    then merges every worker dump into the recorder on exit.
    """

    def __init__(self, config: ObsConfig) -> None:
        import tempfile

        from repro.obs.profiler import worker_profile_env

        self.tmpdir = tempfile.TemporaryDirectory(prefix="repro_profile_")
        self._saved: dict[str, str | None] = {}
        for key, value in worker_profile_env(
            self.tmpdir.name, config.profile_hz
        ).items():
            self._saved[key] = os.environ.get(key)
            os.environ[key] = value
        # Existing pooled workers predate the env export; refork them so
        # every worker of this run samples itself.
        from repro.parallel.persistent import shutdown_pools

        shutdown_pools()

    def collect(self, recorder: Recorder) -> None:
        from repro.obs.profiler import collect_worker_profiles

        try:
            merged = collect_worker_profiles(self.tmpdir.name)
            if merged is not None:
                recorder.add_profile("workers", merged)
        finally:
            for key, value in self._saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:  # pragma: no cover - nested profiled sessions
                    os.environ[key] = value
            self.tmpdir.cleanup()


def _worker_profiling(config: ObsConfig) -> "_WorkerProfileScope | None":
    try:
        return _WorkerProfileScope(config)
    except OSError:  # pragma: no cover - tmpdir creation failed
        return None
