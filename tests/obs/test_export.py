"""Chrome Trace Event export: mapping, caps, and structural validation."""

import io
import json

from repro.cli import main
from repro.obs.export import (
    INSTANT_EVENT_CAP,
    MAIN_TID,
    WORKER_TID0,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.logging import parse_jsonl
from repro.obs.recorder import ObsConfig, session


def _events(tmp_path):
    """A real event stream: one session with nested spans + worker events."""
    events_path = tmp_path / "events.jsonl"
    cfg = ObsConfig(log_level="error", log_json=str(events_path))
    with session(cfg, stream=io.StringIO()) as rec:
        with rec.span("pipeline.stage", stage="walks"):
            pass
        with rec.span("pipeline.stage", stage="train"):
            with rec.span("train.epoch", epoch=0):
                rec.event(
                    "hogwild.worker",
                    level="debug",
                    worker=0,
                    epoch=0,
                    batches=5,
                    examples=100,
                    loss_sum=1.5,
                )
                rec.event(
                    "hogwild.worker",
                    level="debug",
                    worker=1,
                    epoch=0,
                    batches=5,
                    examples=90,
                    loss_sum=1.2,
                )
    return parse_jsonl(events_path)


class TestChromeTrace:
    def test_spans_become_complete_events(self, tmp_path):
        trace = chrome_trace(_events(tmp_path))
        complete = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in complete}
        assert {"pipeline.stage", "train.epoch"} <= names
        for event in complete:
            assert event["tid"] == MAIN_TID
            assert event["dur"] >= 0
            assert event["ts"] >= 0
        stages = {
            e["args"].get("stage")
            for e in complete
            if e["name"] == "pipeline.stage"
        }
        assert stages == {"walks", "train"}

    def test_worker_events_get_their_own_tracks(self, tmp_path):
        trace = chrome_trace(_events(tmp_path))
        worker_instants = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "i" and e.get("cat") == "hogwild"
        ]
        assert {e["tid"] for e in worker_instants} == {
            WORKER_TID0,
            WORKER_TID0 + 1,
        }
        counters = [
            e for e in trace["traceEvents"] if e.get("ph") == "C"
        ]
        assert any(e["args"] == {"w0": 100} for e in counters)
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert "hogwild-worker-0" in thread_names

    def test_instant_cap_records_drops(self):
        events = [
            {"ts": float(i), "event": f"e{i}", "level": "info"}
            for i in range(INSTANT_EVENT_CAP + 10)
        ]
        trace = chrome_trace(events)
        assert trace["metadata"]["instants_dropped"] == 10

    def test_empty_stream_is_still_valid_json(self):
        trace = chrome_trace([])
        assert trace["traceEvents"] == []
        json.dumps(trace)

    def test_write_roundtrip(self, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome_trace(out, _events(tmp_path))
        loaded = json.loads(out.read_text())
        assert validate_chrome_trace(loaded) == []


class TestValidation:
    def test_rejects_non_trace_shapes(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []

    def test_flags_missing_complete_events(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "i", "ts": 0}]}
        )
        assert any("no complete" in p for p in problems)

    def test_flags_uncovered_stage(self, tmp_path):
        trace = chrome_trace(_events(tmp_path))
        problems = validate_chrome_trace(
            trace, stage_names=["walks", "train", "detect"]
        )
        assert problems == ["no complete event for pipeline stage 'detect'"]

    def test_flags_malformed_events(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "ts": 0}, "junk"]}
        )
        assert any("missing dur" in p for p in problems)
        assert any("not an event object" in p for p in problems)


class TestCliTraceExport:
    def test_report_trace_export(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        graph = tmp_path / "g.edges"
        assert main(["generate", "-o", str(graph), "--n", "40", "--seed", "1"]) == 0
        assert (
            main(
                [
                    "embed",
                    str(graph),
                    "-o",
                    str(tmp_path / "v.npz"),
                    "--dim",
                    "8",
                    "--epochs",
                    "2",
                    "--walks",
                    "2",
                    "--length",
                    "10",
                    "--log-level",
                    "error",
                    "--log-json",
                    str(tmp_path / "events.jsonl"),
                    "--metrics-out",
                    str(tmp_path / "m.json"),
                ]
            )
            == 0
        )
        trace_path = tmp_path / "t.json"
        assert (
            main(
                [
                    "report",
                    str(tmp_path / "m.json"),
                    "--trace-export",
                    str(trace_path),
                ]
            )
            == 0
        )
        assert "chrome trace" in capsys.readouterr().out
        trace = json.loads(trace_path.read_text())
        manifest = json.loads((tmp_path / "m.json").read_text())
        stages = [r["stage"] for r in manifest["stage_reports"]]
        assert stages == ["walks", "train"]
        assert validate_chrome_trace(trace, stage_names=stages) == []

    def test_trace_export_requires_events(self, tmp_path, capsys):
        from repro.obs.manifest import build_manifest, write_manifest
        from repro.obs.metrics import MetricsRegistry

        manifest_path = tmp_path / "m.json"
        write_manifest(manifest_path, build_manifest(MetricsRegistry()))
        rc = main(
            [
                "report",
                str(manifest_path),
                "--trace-export",
                str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "event stream" in capsys.readouterr().err
