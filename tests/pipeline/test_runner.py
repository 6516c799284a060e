"""Pipeline composition: ordering, caching/skip, error transparency."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline import (
    ExecutionContext,
    FingerprintMismatch,
    Pipeline,
    PipelineStage,
    StageError,
)


class AppendStage(PipelineStage):
    """value -> value + [tag]; records that it ran."""

    def __init__(self, tag: str):
        self.name = tag
        self.calls = 0

    def run(self, ctx, value):
        self.calls += 1
        return [*(value or []), self.name]


class CachedDouble(PipelineStage):
    """Doubles an array; opts into pipeline-level output caching."""

    name = "double"
    cache_output = True

    def __init__(self, factor: int = 2):
        self.factor = factor
        self.calls = 0

    def fingerprint(self, ctx, value):
        return {"stage": self.name, "factor": self.factor}

    def run(self, ctx, value):
        self.calls += 1
        return np.asarray(value) * self.factor


class Boom(PipelineStage):
    name = "boom"

    def run(self, ctx, value):
        raise KeyError("kaboom")


class TestComposition:
    def test_stages_run_in_order_and_outputs_collected(self):
        a, b, c = AppendStage("a"), AppendStage("b"), AppendStage("c")
        result = Pipeline([a, b, c]).execute()
        assert result.value == ["a", "b", "c"]
        assert result.outputs == {
            "a": ["a"],
            "b": ["a", "b"],
            "c": ["a", "b", "c"],
        }
        assert [r.name for r in result.reports] == ["a", "b", "c"]
        assert all(not r.skipped for r in result.reports)
        assert result.seconds_for("a", "b") >= 0.0

    def test_run_returns_final_value_only(self):
        assert Pipeline([AppendStage("a")]).run() == ["a"]

    def test_extended_builds_a_longer_pipeline(self):
        base = Pipeline([AppendStage("a")])
        longer = base.extended(AppendStage("b"))
        assert longer.names == ["a", "b"]
        assert base.names == ["a"]  # original untouched

    def test_empty_pipeline_rejected(self):
        with pytest.raises(StageError, match="at least one stage"):
            Pipeline([])

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(StageError, match="duplicate"):
            Pipeline([AppendStage("x"), AppendStage("x")])

    def test_unnamed_stage_rejected(self):
        class Nameless:
            name = ""

            def run(self, ctx, value):  # pragma: no cover
                return value

        with pytest.raises(StageError, match="no usable name"):
            Pipeline([Nameless()])

    def test_report_for_unknown_name(self):
        result = Pipeline([AppendStage("a")]).execute()
        with pytest.raises(KeyError):
            result.report_for("nope")


class TestErrorTransparency:
    def test_typed_errors_propagate_unchanged(self):
        with pytest.raises(KeyError, match="kaboom") as excinfo:
            Pipeline([AppendStage("a"), Boom()]).run()
        # the stage name is annotated, not wrapped
        assert "pipeline stage 'boom'" in "".join(
            excinfo.value.__notes__
        )


class TestStageCache:
    def test_no_checkpoint_dir_skips_the_fingerprint(self):
        class Unfingerprintable(CachedDouble):
            def fingerprint(self, ctx, value):
                raise AssertionError("fingerprinted with nowhere to cache")

        stage = Unfingerprintable()
        result = Pipeline([stage]).execute(np.arange(3))
        assert np.array_equal(result.value, np.arange(3) * 2)
        assert stage.calls == 1

    def test_resume_skips_cached_stage(self, tmp_path):
        stage = CachedDouble()
        ctx = ExecutionContext(checkpoint_dir=tmp_path)
        first = Pipeline([stage]).execute(np.arange(4), context=ctx)
        assert stage.calls == 1
        assert np.array_equal(first.value, np.arange(4) * 2)

        resumed = Pipeline([stage]).execute(
            np.arange(4), context=ExecutionContext(checkpoint_dir=tmp_path, resume=True)
        )
        assert stage.calls == 1  # restored, not recomputed
        assert resumed.report_for("double").skipped is True
        assert np.array_equal(resumed.value, first.value)

    def test_changed_fingerprint_refuses_stale_cache(self, tmp_path):
        ctx = ExecutionContext(checkpoint_dir=tmp_path)
        Pipeline([CachedDouble(factor=2)]).execute(np.arange(4), context=ctx)
        with pytest.raises(FingerprintMismatch):
            Pipeline([CachedDouble(factor=3)]).execute(
                np.arange(4),
                context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
            )

    def test_without_resume_cache_is_rewritten_not_read(self, tmp_path):
        stage = CachedDouble()
        ctx = ExecutionContext(checkpoint_dir=tmp_path)
        Pipeline([stage]).execute(np.arange(4), context=ctx)
        Pipeline([stage]).execute(np.arange(4), context=ctx)
        assert stage.calls == 2

    def test_no_checkpoint_dir_disables_cache(self):
        stage = CachedDouble()
        Pipeline([stage]).run(np.arange(4), context=ExecutionContext(resume=True))
        Pipeline([stage]).run(np.arange(4), context=ExecutionContext(resume=True))
        assert stage.calls == 2


class TestObservability:
    def test_context_observability_opens_a_session(self, tmp_path):
        from repro.graph.generators import planted_partition
        from repro.obs.manifest import load_manifest
        from repro.obs.recorder import ObsConfig
        from repro.pipeline import WalkStage
        from repro.walks.engine import RandomWalkConfig

        graph = planted_partition(n=30, groups=3, alpha=0.7, inter_edges=4, seed=0)
        manifest_path = tmp_path / "run.json"
        ctx = ExecutionContext(
            observability=ObsConfig(log_level="error", metrics_out=str(manifest_path))
        )
        stage = WalkStage(RandomWalkConfig(walks_per_vertex=2, walk_length=10, seed=0))
        Pipeline([stage]).execute(graph, context=ctx)

        manifest = load_manifest(manifest_path)
        assert manifest["config"]["entrypoint"] == "Pipeline.execute"
        assert [r["stage"] for r in manifest["stage_reports"]] == ["walks"]
        assert manifest["metrics"]["counters"]["walks.total"] == 60
