"""SharedArray lifecycle: create/attach/cleanup, and no leaked segments."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.parallel.pool import parallel_map
from repro.parallel.shm import (
    SHM_AVAILABLE,
    SharedArray,
    SharedArraySpec,
    shared_arrays,
)

pytestmark = pytest.mark.skipif(
    not SHM_AVAILABLE, reason="platform has no multiprocessing.shared_memory"
)

SHM_DIR = Path("/dev/shm")


def shm_entries() -> set:
    """Names currently present in /dev/shm (empty set if unsupported)."""
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir()}


@pytest.fixture()
def no_leaks():
    """Assert the test leaves no new /dev/shm entries behind."""
    before = shm_entries()
    yield
    leaked = shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


class TestSharedArray:
    def test_roundtrip_from_array(self, no_leaks):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        with SharedArray.from_array(data) as shared:
            np.testing.assert_array_equal(shared.array, data)
            assert shared.owner
            assert shared.spec.shape == (3, 4)

    def test_attach_sees_owner_writes(self, no_leaks):
        with SharedArray.create((5,), np.int64) as shared:
            shared.array[:] = 7
            attached = SharedArray.attach(shared.spec)
            try:
                assert not attached.owner
                np.testing.assert_array_equal(attached.array, shared.array)
                attached.array[0] = 99
                assert shared.array[0] == 99
            finally:
                attached.close()

    def test_spec_is_picklable(self, no_leaks):
        with SharedArray.create((2, 2), np.float32) as shared:
            spec = pickle.loads(pickle.dumps(shared.spec))
            assert spec == shared.spec
            assert isinstance(spec, SharedArraySpec)
            assert spec.nbytes() == 16

    def test_destroy_is_idempotent_and_invalidates(self, no_leaks):
        shared = SharedArray.from_array(np.zeros(3))
        shared.destroy()
        shared.destroy()
        assert shared.released
        with pytest.raises(ValueError, match="released"):
            _ = shared.array

    def test_copy_outlives_segment(self, no_leaks):
        shared = SharedArray.from_array(np.arange(4))
        copy = shared.copy()
        shared.destroy()
        np.testing.assert_array_equal(copy, np.arange(4))

    def test_gc_finalizer_unlinks(self):
        before = shm_entries()
        SharedArray.create((64,), np.float64)  # dropped immediately
        import gc

        gc.collect()
        assert shm_entries() - before == set()

    def test_segment_visible_in_dev_shm_until_destroy(self):
        if not SHM_DIR.is_dir():
            pytest.skip("no /dev/shm on this platform")
        before = shm_entries()
        shared = SharedArray.create((8,), np.int64)
        created = shm_entries() - before
        assert len(created) == 1
        shared.destroy()
        assert shm_entries() - before == set()


class TestSharedArrayScope:
    def test_scope_destroys_on_exception(self):
        before = shm_entries()
        with pytest.raises(RuntimeError, match="boom"):
            with shared_arrays() as scope:
                scope.create((16,), np.float64)
                scope.from_array(np.ones((4, 4)))
                raise RuntimeError("boom")
        assert shm_entries() - before == set()

    def test_scope_destroys_on_normal_exit(self):
        before = shm_entries()
        with shared_arrays() as scope:
            shared = scope.create((16,), np.float64)
        assert shared.released
        assert shm_entries() - before == set()


def _pool_write(args):
    spec, i = args
    shared = SharedArray.attach(spec)
    try:
        shared.array[i] = i * 10
    finally:
        shared.close()
    return i


class TestCrossProcess:
    def test_pool_workers_write_into_segment(self, no_leaks):
        with SharedArray.create((4,), np.int64) as shared:
            shared.array[:] = -1
            parallel_map(
                _pool_write, [(shared.spec, i) for i in range(4)], workers=2
            )
            np.testing.assert_array_equal(shared.array, [0, 10, 20, 30])

    # The pool forks before the parent ever creates a segment (so before
    # Python's resource tracker would otherwise start); the walks then
    # attach segments in the workers.
    FORK_BEFORE_SHM = """
from repro.graph.generators import planted_partition
from repro.parallel.pool import parallel_map
from repro.walks.engine import RandomWalkConfig, generate_walks

parallel_map(abs, [-1, -2, -3, -4], workers=2)
graph = planted_partition(200, 4, 0.5, seed=0)
config = RandomWalkConfig(walks_per_vertex=2, walk_length=10, seed=0)
generate_walks(graph, config, workers=2)
"""

    def test_workers_share_the_parents_resource_tracker(self, no_leaks):
        root = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-c", self.FORK_BEFORE_SHM],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
