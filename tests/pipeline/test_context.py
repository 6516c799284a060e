"""ExecutionContext: scoping, merging, checkpointing, legacy shims."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.pipeline import ExecutionContext, FingerprintMismatch
from repro.pipeline.context import UNSET, context_from_legacy
from repro.resilience.supervisor import SupervisorConfig


class TestConstruction:
    def test_defaults_are_inert(self):
        ctx = ExecutionContext()
        assert ctx.checkpoint_dir is None
        assert ctx.resume is False
        assert ctx.workers == 1
        assert ctx.supervisor is None
        assert ctx.checkpoints() is None
        assert ctx.fingerprinted({"a": 1}) is None

    def test_checkpoint_dir_normalized_to_path(self, tmp_path):
        ctx = ExecutionContext(checkpoint_dir=str(tmp_path))
        assert isinstance(ctx.checkpoint_dir, Path)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionContext().resume = True


class TestScoping:
    def test_scoped_appends_subdirectory(self, tmp_path):
        ctx = ExecutionContext(checkpoint_dir=tmp_path, resume=True, workers=4)
        walks = ctx.scoped("walks")
        assert walks.checkpoint_dir == tmp_path / "walks"
        # everything else rides along unchanged
        assert walks.resume is True and walks.workers == 4

    def test_scoped_without_checkpointing_is_identity(self):
        ctx = ExecutionContext()
        assert ctx.scoped("walks") is ctx

    def test_with_supervisor_fills_only_when_unset(self):
        sup = SupervisorConfig(worker_deadline=1.0)
        other = SupervisorConfig(worker_deadline=9.0)
        assert ExecutionContext().with_supervisor(sup).supervisor is sup
        ctx = ExecutionContext(supervisor=sup)
        assert ctx.with_supervisor(other).supervisor is sup
        assert ctx.with_supervisor(None).supervisor is sup


class TestWorkersAndChaos:
    def test_resolve_workers(self):
        assert ExecutionContext(workers=3).resolve_workers() == 3
        assert ExecutionContext(workers=None).resolve_workers() >= 1
        assert ExecutionContext(workers=0).resolve_workers() >= 1

    def test_wrap_task_passthrough_and_hook(self):
        fn = lambda x: x  # noqa: E731
        assert ExecutionContext().wrap_task(fn) is fn
        wrapped = object()
        ctx = ExecutionContext(fault_injector=lambda f: wrapped)
        assert ctx.wrap_task(fn) is wrapped

    def test_fault_injector_excluded_from_equality(self):
        a = ExecutionContext(fault_injector=lambda f: f)
        b = ExecutionContext()
        assert a == b


class TestFingerprintedCheckpoints:
    def test_roundtrip_and_mismatch(self, tmp_path):
        ctx = ExecutionContext(checkpoint_dir=tmp_path)
        store = ctx.fingerprinted({"v": 1}, scope="s")
        assert store.load("slot") is None
        store.save("slot", {"x": np.arange(3)}, {"extra": 7})
        ckpt = store.load("slot")
        assert np.array_equal(ckpt.arrays["x"], np.arange(3))
        assert ckpt.meta["extra"] == 7

        other = ctx.fingerprinted({"v": 2}, scope="s")
        with pytest.raises(FingerprintMismatch, match="different configuration"):
            other.load("slot")
        # FingerprintMismatch stays catchable as the historical ValueError
        assert issubclass(FingerprintMismatch, ValueError)

    def test_scope_separates_directories(self, tmp_path):
        ctx = ExecutionContext(checkpoint_dir=tmp_path)
        a = ctx.fingerprinted({"v": 1}, scope="a")
        b = ctx.fingerprinted({"v": 1}, scope="b")
        a.save("slot", {"x": np.zeros(1)})
        assert b.load("slot") is None


class TestSeedTree:
    def test_seed_sequence_is_stable_and_keyed(self):
        ctx = ExecutionContext(seed=7)
        a = ctx.seed_sequence("detect")
        b = ctx.seed_sequence("detect")
        c = ctx.seed_sequence("layout")
        assert (
            np.random.default_rng(a).integers(1 << 30)
            == np.random.default_rng(b).integers(1 << 30)
        )
        assert (
            np.random.default_rng(a).integers(1 << 30)
            != np.random.default_rng(c).integers(1 << 30)
        )

    def test_spawn_seeds_count(self):
        assert len(ExecutionContext(seed=0).spawn_seeds(4)) == 4


class TestContextFromLegacy:
    def test_unset_kwargs_are_dropped(self):
        ctx = context_from_legacy(None, checkpoint_dir=UNSET, workers=UNSET)
        assert ctx == ExecutionContext()

    def test_workers_shorthand_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ctx = context_from_legacy(None, workers=4, checkpoint_dir=UNSET)
        assert ctx.workers == 4

    def test_context_plus_legacy_is_an_error(self, tmp_path):
        with pytest.raises(TypeError, match="not both"):
            context_from_legacy(
                ExecutionContext(), checkpoint_dir=tmp_path, workers=UNSET
            )

    def test_explicit_context_passes_through(self):
        ctx = ExecutionContext(workers=2)
        assert (
            context_from_legacy(ctx, checkpoint_dir=UNSET, workers=UNSET) is ctx
        )
