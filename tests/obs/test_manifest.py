"""Run manifest: schema, validation, fingerprints, atomic writes."""

import json

import pytest

from repro.obs.manifest import (
    MANIFEST_KIND,
    REQUIRED_KEYS,
    SCHEMA_VERSION,
    ManifestError,
    build_manifest,
    config_fingerprint,
    host_info,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import MetricsRegistry


def _registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc("walks.total", 240)
    reg.set("train.lr", 0.01)
    reg.observe("train.epoch_seconds", 0.5)
    return reg


class TestBuild:
    def test_contains_every_required_key(self):
        manifest = build_manifest(_registry(), run_config={"dim": 8})
        for key in REQUIRED_KEYS:
            assert key in manifest
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["kind"] == MANIFEST_KIND
        assert manifest["config"] == {"dim": 8}
        assert manifest["metrics"]["counters"]["walks.total"] == 240.0

    def test_host_block_describes_the_machine(self):
        host = host_info()
        assert host["cpu_count"] >= 1
        assert host["cpu_affinity"] >= 1
        assert host["python"].count(".") == 2

    def test_is_json_serializable(self):
        manifest = build_manifest(_registry())
        json.dumps(manifest)  # must not raise


class TestFingerprint:
    def test_key_order_insensitive(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_different_configs_differ(self):
        assert config_fingerprint({"dim": 8}) != config_fingerprint({"dim": 16})

    def test_short_stable_hex(self):
        fp = config_fingerprint({"dim": 8})
        assert len(fp) == 16
        assert fp == config_fingerprint({"dim": 8})


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        written = write_manifest(
            path,
            build_manifest(
                _registry(),
                run_config={"dim": 8},
                events_path=tmp_path / "e.jsonl",
            ),
        )
        loaded = load_manifest(path)
        assert loaded == json.loads(json.dumps(written, default=str))
        assert loaded["events_path"].endswith("e.jsonl")

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "run.json"
        write_manifest(path, build_manifest(_registry()))
        assert {p.name for p in tmp_path.iterdir()} == {"run.json"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="no manifest"):
            load_manifest(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(path)


class TestValidate:
    def test_missing_keys_listed(self):
        manifest = build_manifest(_registry())
        del manifest["host"]
        del manifest["metrics"]
        with pytest.raises(ManifestError, match="host.*metrics"):
            validate_manifest(manifest)

    def test_wrong_kind_rejected(self):
        manifest = build_manifest(_registry())
        manifest["kind"] = "something-else"
        with pytest.raises(ManifestError, match="not a run manifest"):
            validate_manifest(manifest)

    def test_non_object_rejected(self):
        with pytest.raises(ManifestError, match="JSON object"):
            validate_manifest([1, 2, 3])

    def test_metrics_must_have_the_three_groups(self):
        manifest = build_manifest(_registry())
        manifest["metrics"] = {"counters": {}}
        with pytest.raises(ManifestError, match="counters/gauges/histograms"):
            validate_manifest(manifest)
