"""``repro report`` edge cases: wound-down runs, torn streams, comparisons."""

import json

import pytest

from repro.cli import main
from repro.obs.logging import parse_jsonl
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import REGRESSION_THRESHOLD, compare_manifests, render_report


def _registry(**gauges):
    reg = MetricsRegistry()
    for name, value in gauges.items():
        reg.set(name.replace("__", "."), value)
    return reg


class TestWoundDownRuns:
    def test_interrupted_manifest_renders(self):
        manifest = build_manifest(
            _registry(),
            status="interrupted",
            interrupt_reason="signal:SIGTERM",
            stage_reports=[
                {"stage": "walks", "seconds": 1.5, "skipped": False,
                 "resources": None},
            ],
        )
        text = render_report(manifest)
        assert "status: interrupted (reason: signal:SIGTERM)" in text
        # stage rows with no resource delta still render (as '-')
        assert "stage resources" in text
        assert "walks" in text

    def test_failed_manifest_renders(self):
        manifest = build_manifest(
            _registry(), status="failed", interrupt_reason="worker died"
        )
        assert "status: failed (reason: worker died)" in render_report(manifest)

    def test_report_cli_on_interrupted_manifest(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_manifest(
            path,
            build_manifest(
                _registry(), status="interrupted", interrupt_reason="deadline"
            ),
        )
        assert main(["report", str(path)]) == 0
        assert "status: interrupted" in capsys.readouterr().out


class TestTruncatedEvents:
    def _torn_stream(self, tmp_path):
        events = tmp_path / "events.jsonl"
        lines = [
            json.dumps(
                {
                    "ts": float(i),
                    "event": "span.end",
                    "span": "pipeline.stage",
                    "seconds": 0.5,
                    "status": "ok",
                    "level": "info",
                }
            )
            for i in range(3)
        ]
        # a hard crash mid-write leaves a torn final line
        events.write_text("\n".join(lines) + '\n{"ts": 3.0, "event": "spa')
        return events

    def test_parse_jsonl_skip_vs_raise(self, tmp_path):
        events = self._torn_stream(tmp_path)
        assert len(parse_jsonl(events, on_error="skip")) == 3
        with pytest.raises(json.JSONDecodeError):
            parse_jsonl(events)

    def test_report_survives_torn_stream(self, tmp_path):
        events = self._torn_stream(tmp_path)
        manifest = build_manifest(_registry(), events_path=events)
        text = render_report(manifest, events_path=events)
        assert "pipeline.stage" in text  # the intact lines still report

    def test_report_cli_with_torn_events(self, tmp_path, capsys):
        events = self._torn_stream(tmp_path)
        path = tmp_path / "m.json"
        write_manifest(path, build_manifest(_registry(), events_path=events))
        assert main(["report", str(path), "--events", str(events)]) == 0
        assert "pipeline.stage" in capsys.readouterr().out


def _manifest_with(*, wall=None, gauges=None, hist_mean=None, config=None):
    reg = MetricsRegistry()
    for name, value in (gauges or {}).items():
        reg.set(name, value)
    if hist_mean is not None:
        reg.observe("train.epoch_seconds", hist_mean)
    stage_reports = None
    if wall is not None:
        stage_reports = [
            {
                "stage": "train",
                "seconds": wall,
                "skipped": False,
                "resources": {"peak_rss_kb": 1000.0},
            }
        ]
    return build_manifest(
        reg, run_config=config, stage_reports=stage_reports
    )


class TestCompareManifests:
    def test_slower_wall_is_a_regression(self):
        a = _manifest_with(wall=1.0)
        b = _manifest_with(wall=1.0 * (1 + REGRESSION_THRESHOLD) + 0.1)
        text = compare_manifests(a, b)
        assert "stage.train.wall_s" in text
        flagged = [ln for ln in text.splitlines() if ln.endswith("<<")]
        assert any("stage.train.wall_s" in ln for ln in flagged)

    def test_faster_wall_is_not_flagged(self):
        a = _manifest_with(wall=2.0)
        b = _manifest_with(wall=1.0)
        text = compare_manifests(a, b)
        assert not any(
            ln.endswith("<<") and "wall_s" in ln for ln in text.splitlines()
        )

    def test_lower_throughput_is_a_regression(self):
        a = _manifest_with(gauges={"train.words_per_sec": 1000.0})
        b = _manifest_with(gauges={"train.words_per_sec": 500.0})
        text = compare_manifests(a, b)
        assert any(
            "train.words_per_sec" in ln and ln.endswith("<<")
            for ln in text.splitlines()
        )

    def test_higher_throughput_is_not_flagged(self):
        a = _manifest_with(gauges={"train.words_per_sec": 500.0})
        b = _manifest_with(gauges={"train.words_per_sec": 1000.0})
        text = compare_manifests(a, b)
        assert not any(ln.endswith("<<") for ln in text.splitlines())

    def test_histogram_means_compare(self):
        a = _manifest_with(hist_mean=1.0)
        b = _manifest_with(hist_mean=2.0)
        text = compare_manifests(a, b)
        assert "train.epoch_seconds.mean" in text
        assert "histogram means" in text

    def test_config_mismatch_is_noted(self):
        a = _manifest_with(wall=1.0, config={"dim": 64})
        b = _manifest_with(wall=1.0, config={"dim": 128})
        assert "configs differ" in compare_manifests(a, b)

    def test_nothing_comparable(self):
        a = build_manifest(MetricsRegistry())
        b = _manifest_with(gauges={"other.gauge": 1.0})
        assert "(no comparable rows)" in compare_manifests(a, b)


class TestCompareCli:
    def test_compare_renders_and_returns_zero(self, tmp_path, capsys):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        reg = MetricsRegistry()
        reg.set("train.words_per_sec", 1000.0)
        write_manifest(a_path, build_manifest(reg))
        reg2 = MetricsRegistry()
        reg2.set("train.words_per_sec", 400.0)
        write_manifest(b_path, build_manifest(reg2))
        assert main(["report", str(a_path), "--compare", str(b_path)]) == 0
        out = capsys.readouterr().out
        assert "manifest comparison" in out
        assert "<<" in out

    def test_compare_rejects_invalid_candidate(self, tmp_path, capsys):
        a_path = tmp_path / "a.json"
        write_manifest(a_path, build_manifest(MetricsRegistry()))
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["report", str(a_path), "--compare", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
