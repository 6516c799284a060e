"""Chaos: a killed worker walking a store must not change the corpus.

Row tasks are idempotent — every random draw is a pure function of
(seed, walk id, step), and workers only *read* the mmap'd store — so
the supervisor can respawn a killed worker and replay its task with no
effect on the output bytes. This test kills a real worker process
mid-run and asserts the corpus is bitwise-identical to an undisturbed
run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import community_benchmark
from repro.graph.store import GraphStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder, use
from repro.parallel.shm import SHM_AVAILABLE
from repro.pipeline.context import ExecutionContext
from repro.resilience.chaos import FaultInjector
from repro.resilience.supervisor import SupervisorConfig
from repro.walks.engine import RandomWalkConfig, generate_walks

from tests.parallel.test_shm import shm_entries

pytestmark = pytest.mark.skipif(
    not SHM_AVAILABLE, reason="platform has no shared memory"
)

FAST = SupervisorConfig(worker_deadline=10.0, max_respawns=5, poll_interval=0.02)


@pytest.fixture()
def no_leaks():
    before = shm_entries()
    yield
    leaked = shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


@pytest.fixture()
def recording():
    registry = MetricsRegistry()
    with use(Recorder(registry)):
        yield registry


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    graph = community_benchmark(0.7, n=120, groups=4, inter_edges=60, seed=11)
    return GraphStore.build(
        graph, tmp_path_factory.mktemp("chaos") / "store", shards=4, seed=3
    )


@pytest.mark.chaos
def test_killed_worker_resumes_bitwise_identical(
    store, tmp_path, no_leaks, recording
):
    config = RandomWalkConfig(walks_per_vertex=2, walk_length=16, seed=21)
    undisturbed = generate_walks(store, config).walks

    ctx = ExecutionContext(
        workers=2,
        supervisor=FAST,
        fault_injector=lambda fn: FaultInjector(
            fn,
            exit_on_calls={1},
            only_in_subprocess=True,
            once_marker=tmp_path / "fired",
        ),
    )
    survived = generate_walks(store, config, context=ctx).walks

    assert (tmp_path / "fired").exists(), "fault never fired — test proved nothing"
    counters = recording.snapshot()["counters"]
    assert counters["supervisor.respawns"] >= 1
    assert np.array_equal(undisturbed, survived), (
        "corpus changed after a worker kill + respawn; shard tasks are "
        "supposed to be idempotent replays"
    )
