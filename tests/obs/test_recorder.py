"""Recorder hub: install/use scopes, fork guard, and the session lifecycle."""

import io
import logging

import pytest

from repro.obs.logging import ROOT_LOGGER_NAME, parse_jsonl
from repro.obs.manifest import load_manifest
from repro.obs.recorder import (
    NULL_RECORDER,
    NULL_SPAN,
    ObsConfig,
    Recorder,
    current_recorder,
    install,
    session,
    use,
)


class TestObsConfig:
    def test_defaults(self):
        cfg = ObsConfig()
        assert cfg.enabled and cfg.log_level == "info"
        assert cfg.log_json is None and cfg.metrics_out is None
        assert not cfg.trace

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="log_level"):
            ObsConfig(log_level="loud")


class TestCurrentRecorder:
    def test_default_is_the_null_recorder(self):
        assert current_recorder() is NULL_RECORDER
        assert not current_recorder().enabled

    def test_use_installs_and_restores(self):
        rec = Recorder()
        with use(rec):
            assert current_recorder() is rec
            with use(NULL_RECORDER):
                assert current_recorder() is NULL_RECORDER
            assert current_recorder() is rec
        assert current_recorder() is NULL_RECORDER

    def test_use_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use(Recorder()):
                raise RuntimeError("boom")
        assert current_recorder() is NULL_RECORDER

    def test_install_none_clears(self):
        install(Recorder())
        try:
            assert current_recorder().enabled
        finally:
            install(None)
        assert current_recorder() is NULL_RECORDER

    def test_foreign_pid_sees_the_null_recorder(self):
        # A forked worker inherits the parent's module globals; the PID
        # pin must make it observe the no-op instead of the live sinks.
        rec = Recorder()
        with use(rec):
            rec.pid = rec.pid + 1  # simulate "some other process"
            assert current_recorder() is NULL_RECORDER


class TestNullRecorder:
    def test_all_methods_are_noops(self):
        rec = NULL_RECORDER
        rec.event("anything", level="error", x=1)
        rec.inc("c")
        rec.set("g", 1.0)
        rec.observe("h", 2.0)
        with rec.span("phase", n=3) as span:
            span.annotate(loss=0.1)
        assert span.seconds == 0.0

    def test_timer_context_works(self):
        with NULL_RECORDER.time("x") as timer:
            pass
        assert timer.seconds == 0.0

    def test_span_and_timer_are_one_shared_singleton(self):
        # the disabled hot path must not allocate per call
        rec = NULL_RECORDER
        assert rec.span("a") is rec.span("b", n=1) is NULL_SPAN
        assert rec.time("a") is rec.time("b") is NULL_SPAN
        assert not rec.enabled


class TestSession:
    def test_none_or_disabled_config_is_the_noop_path(self, tmp_path):
        manifest = tmp_path / "run.json"
        with session(None) as rec:
            assert rec is NULL_RECORDER
        cfg = ObsConfig(enabled=False, metrics_out=str(manifest))
        with session(cfg) as rec:
            assert rec is NULL_RECORDER
        assert not manifest.exists()  # disabled writes nothing at all

    def test_full_lifecycle_writes_events_and_manifest(self, tmp_path):
        events = tmp_path / "events.jsonl"
        manifest_path = tmp_path / "run.json"
        cfg = ObsConfig(
            log_level="error",
            log_json=str(events),
            metrics_out=str(manifest_path),
        )
        with session(cfg, run_config={"dim": 8}, stream=io.StringIO()) as rec:
            assert current_recorder() is rec
            rec.inc("train.epochs_run", 2)
            with rec.span("train.epoch", epoch=0):
                pass
        assert current_recorder() is NULL_RECORDER
        names = [e["event"] for e in parse_jsonl(events)]
        assert names[0] == "run.begin"
        assert names[-1] == "run.end"
        assert "span.begin" in names and "span.end" in names
        manifest = load_manifest(manifest_path)
        assert manifest["config"] == {"dim": 8}
        assert manifest["metrics"]["counters"]["train.epochs_run"] == 2.0
        assert manifest["events_path"] == str(events)

    def test_manifest_written_even_when_the_body_raises(self, tmp_path):
        manifest_path = tmp_path / "run.json"
        cfg = ObsConfig(log_level="error", metrics_out=str(manifest_path))
        with pytest.raises(RuntimeError, match="boom"):
            with session(cfg, stream=io.StringIO()) as rec:
                rec.inc("partial.work")
                raise RuntimeError("boom")
        manifest = load_manifest(manifest_path)
        assert manifest["metrics"]["counters"]["partial.work"] == 1.0

    def test_trace_mirrors_spans_to_the_human_sink(self, tmp_path):
        stream = io.StringIO()
        cfg = ObsConfig(log_level="error", trace=True)
        with session(cfg, stream=stream) as rec:
            with rec.span("walks.generate"):
                pass
        out = stream.getvalue()
        assert "span.begin" in out and "span.end" in out

    def test_without_trace_spans_stay_off_the_human_sink(self, tmp_path):
        stream = io.StringIO()
        with session(ObsConfig(log_level="error"), stream=stream) as rec:
            with rec.span("walks.generate"):
                pass
        assert "span." not in stream.getvalue()

    def test_handlers_fully_detached_after_session(self, tmp_path):
        root = logging.getLogger(ROOT_LOGGER_NAME)
        before = list(root.handlers)
        cfg = ObsConfig(log_json=str(tmp_path / "e.jsonl"))
        with session(cfg, stream=io.StringIO()):
            assert len(root.handlers) == len(before) + 2
        assert root.handlers == before
