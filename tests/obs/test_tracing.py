"""Trace spans: begin/end events, nesting, errors, duration histograms."""

import io

import pytest

from repro.obs.logging import (
    configure_logging,
    get_logger,
    parse_jsonl,
    teardown_logging,
)
from repro.obs.recorder import NULL_SPAN, Recorder


@pytest.fixture()
def traced(tmp_path):
    """A Recorder wired to a JSONL sink; yields (recorder, read_events)."""
    path = tmp_path / "events.jsonl"
    handlers = configure_logging("error", json_path=path, stream=io.StringIO())
    rec = Recorder(logger=get_logger("test"))
    yield rec, lambda: parse_jsonl(path)
    teardown_logging(handlers)


def _innermost(rec):
    """The innermost open span of ``rec``, or None."""
    return rec._spans[-1] if rec._spans else None


class TestSpan:
    def test_begin_and_end_events(self, traced):
        rec, events = traced
        with rec.span("walks.generate", n=60):
            pass
        begin, end = events()
        assert begin["event"] == "span.begin"
        assert begin["span"] == "walks.generate"
        assert begin["n"] == 60
        assert begin["parent_id"] is None
        assert end["event"] == "span.end"
        assert end["span_id"] == begin["span_id"]
        assert end["status"] == "ok"
        assert end["seconds"] >= 0

    def test_nesting_builds_the_path(self, traced):
        rec, events = traced
        with rec.span("outer"):
            assert _innermost(rec).name == "outer"
            with rec.span("inner"):
                assert _innermost(rec).name == "inner"
        assert _innermost(rec) is None
        by_key = {(e["event"], e["span"]): e for e in events()}
        outer_begin = by_key[("span.begin", "outer")]
        inner_begin = by_key[("span.begin", "inner")]
        assert inner_begin["path"] == "outer>inner"
        assert inner_begin["parent_id"] == outer_begin["span_id"]
        # inner ends before outer
        names = [e["span"] for e in events() if e["event"] == "span.end"]
        assert names == ["inner", "outer"]

    def test_annotate_rides_the_end_event_only(self, traced):
        rec, events = traced
        with rec.span("train.epoch", epoch=0) as span:
            span.annotate(loss=0.5)
        begin, end = events()
        assert "loss" not in begin
        assert end["loss"] == 0.5
        assert end["epoch"] == 0

    def test_exception_marks_error_and_propagates(self, traced):
        rec, events = traced
        with pytest.raises(RuntimeError, match="boom"):
            with rec.span("train.run"):
                raise RuntimeError("boom")
        end = [e for e in events() if e["event"] == "span.end"][0]
        assert end["status"] == "error"
        assert "RuntimeError('boom')" in end["exception"]
        assert _innermost(rec) is None  # stack unwound

    def test_duration_lands_in_histogram(self, traced):
        rec, _ = traced
        with rec.span("phase"):
            pass
        with rec.span("phase"):
            pass
        snap = rec.registry.histogram("span.phase.seconds").snapshot()
        assert snap["count"] == 2

    def test_span_ids_are_unique_and_increasing(self, traced):
        rec, _ = traced
        with rec.span("a") as a:
            pass
        with rec.span("b") as b:
            pass
        assert b.span_id > a.span_id


class TestNullSpan:
    def test_inert_context(self):
        with NULL_SPAN as span:
            span.annotate(anything=1)
        assert span is NULL_SPAN
        assert NULL_SPAN.name == ""
        assert NULL_SPAN.seconds == 0.0
