"""End-to-end instrumentation: spans in the stream, manifest agreement,
and the bitwise no-op guarantee of the disabled path."""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.graph.generators import planted_partition
from repro.obs.logging import parse_jsonl
from repro.obs.manifest import load_manifest
from repro.obs.recorder import ObsConfig, session
from repro.obs.report import render_report, span_summary
from repro.core.model import V2V, V2VConfig

WALKS_PER_VERTEX = 4
EPOCHS = 3


@pytest.fixture(scope="module")
def graph():
    return planted_partition(n=60, groups=3, alpha=0.7, inter_edges=8, seed=0)


def _config(**overrides) -> V2VConfig:
    base = dict(
        dim=8,
        walks_per_vertex=WALKS_PER_VERTEX,
        walk_length=20,
        epochs=EPOCHS,
        early_stop=False,
        seed=0,
    )
    base.update(overrides)
    return V2VConfig(**base)


class TestPipelineTelemetry:
    def test_fit_emits_spans_for_every_phase(self, graph, tmp_path):
        events_path = tmp_path / "events.jsonl"
        manifest_path = tmp_path / "run.json"
        cfg = ObsConfig(
            log_level="error",
            log_json=str(events_path),
            metrics_out=str(manifest_path),
        )
        with session(cfg, run_config={"dim": 8}, stream=io.StringIO()):
            V2V(_config()).fit(graph)

        events = parse_jsonl(events_path)
        spans = span_summary(events)
        assert spans["pipeline.fit"]["count"] == 1
        assert spans["walks.generate"]["count"] == 1
        assert spans["train.run"]["count"] == 1
        assert spans["train.epoch"]["count"] == EPOCHS  # one span per epoch
        assert all(row["errors"] == 0 for row in spans.values())

        # The manifest and the event stream describe the same run.
        manifest = load_manifest(manifest_path)
        counters = manifest["metrics"]["counters"]
        assert counters["train.epochs_run"] == EPOCHS
        assert counters["walks.total"] == graph.n * WALKS_PER_VERTEX
        assert manifest["metrics"]["gauges"]["train.words_per_sec"] > 0
        hist = manifest["metrics"]["histograms"]["train.epoch_seconds"]
        assert hist["count"] == EPOCHS

        report = render_report(manifest, events_path=events_path)
        assert "run manifest" in report
        assert "train.epoch" in report

    def test_disabled_observability_is_bitwise_identical(self, graph, tmp_path):
        plain = V2V(_config()).fit(graph).vectors

        cfg = ObsConfig(
            log_level="error",
            log_json=str(tmp_path / "e.jsonl"),
            metrics_out=str(tmp_path / "run.json"),
        )
        with session(cfg, stream=io.StringIO()):
            observed = V2V(_config()).fit(graph).vectors

        # Telemetry must make zero RNG draws and zero float-op changes.
        np.testing.assert_array_equal(plain, observed)

    def test_v2vconfig_observability_opens_its_own_session(self, graph, tmp_path):
        manifest_path = tmp_path / "run.json"
        obs = ObsConfig(log_level="error", metrics_out=str(manifest_path))
        V2V(_config(observability=obs)).fit(graph)
        manifest = load_manifest(manifest_path)
        assert manifest["config"]["entrypoint"] == "V2V.fit"
        assert manifest["config"]["dim"] == 8
        assert manifest["metrics"]["counters"]["train.epochs_run"] == EPOCHS

    def test_checkpoint_telemetry(self, graph, tmp_path):
        events_path = tmp_path / "events.jsonl"
        cfg = ObsConfig(log_level="error", log_json=str(events_path))
        with session(cfg, stream=io.StringIO()) as rec:
            V2V(_config()).fit(graph, checkpoint_dir=tmp_path / "ckpt")
            counters = rec.registry.snapshot()["counters"]
        assert counters["checkpoint.saves"] >= 1
        assert counters["checkpoint.bytes"] > 0
        assert any(
            e["event"] == "checkpoint.saved" for e in parse_jsonl(events_path)
        )


class TestCliTelemetry:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        path = tmp_path / "graph.txt"
        rc = main(
            ["generate", "-o", str(path), "--n", "60", "--groups", "3", "--seed", "0"]
        )
        assert rc == 0
        return path

    def test_embed_writes_stream_and_manifest(self, graph_file, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        manifest_path = tmp_path / "run.json"
        rc = main(
            [
                "embed", str(graph_file), "-o", str(tmp_path / "v.npz"),
                "--dim", "8", "--walks", "2", "--length", "10", "--epochs", "2",
                "--seed", "0",
                "--log-json", str(events_path),
                "--metrics-out", str(manifest_path),
            ]
        )
        assert rc == 0
        spans = span_summary(parse_jsonl(events_path))
        assert spans["walks.generate"]["count"] == 1
        assert spans["train.epoch"]["count"] == 2
        manifest = load_manifest(manifest_path)
        assert manifest["config"]["command"] == "embed"
        assert manifest["metrics"]["counters"]["train.epochs_run"] == 2
        # stdout stays reserved for the command result
        out = capsys.readouterr().out
        assert "embedded 60 vertices" in out
        assert "span." not in out

    def test_no_telemetry_writes_nothing(self, graph_file, tmp_path):
        manifest_path = tmp_path / "run.json"
        rc = main(
            [
                "embed", str(graph_file), "-o", str(tmp_path / "v.npz"),
                "--dim", "4", "--walks", "2", "--length", "8", "--epochs", "1",
                "--no-telemetry", "--metrics-out", str(manifest_path),
            ]
        )
        assert rc == 0
        assert not manifest_path.exists()

    def test_report_command(self, graph_file, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        main(
            [
                "embed", str(graph_file), "-o", str(tmp_path / "v.npz"),
                "--dim", "4", "--walks", "2", "--length", "8", "--epochs", "1",
                "--metrics-out", str(manifest_path),
            ]
        )
        capsys.readouterr()
        assert main(["report", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "train.epochs_run" in out

    def test_report_rejects_missing_or_invalid_manifest(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "other"}')
        assert main(["report", str(bad)]) == 2
