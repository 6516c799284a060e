"""Telemetry under chaos: a killed Hogwild worker must leave a parseable
event stream, a valid manifest, and no shared-memory segments behind."""

import io

import numpy as np
import pytest

from repro.core.trainer import TrainConfig
from repro.graph.generators import planted_partition
from repro.obs.logging import parse_jsonl
from repro.obs.manifest import load_manifest
from repro.obs.recorder import ObsConfig, session
from repro.parallel.hogwild import (
    hogwild_epoch_task,
    hogwild_supported,
    train_hogwild,
)
from repro.resilience.chaos import FaultInjector, InjectedFault
from repro.walks.engine import RandomWalkConfig, generate_walks

from tests.parallel.test_shm import shm_entries

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not hogwild_supported(), reason="platform has no shared memory"
    ),
]


@pytest.fixture(scope="module")
def corpus():
    graph = planted_partition(n=90, groups=3, alpha=0.7, inter_edges=10, seed=0)
    return generate_walks(
        graph, RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=5)
    )


@pytest.fixture()
def no_leaks():
    before = shm_entries()
    yield
    leaked = shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


class TestKilledWorker:
    def test_stream_and_manifest_survive_a_worker_kill(
        self, corpus, tmp_path, no_leaks
    ):
        events_path = tmp_path / "events.jsonl"
        manifest_path = tmp_path / "run.json"
        # The first epoch task to run inside a pool worker hard-exits
        # (os._exit, like an OOM kill); the once-marker lets the retried
        # pool pass succeed.
        injector = FaultInjector(
            hogwild_epoch_task,
            exit_on_calls={1},
            only_in_subprocess=True,
            once_marker=tmp_path / "fired",
        )
        config = TrainConfig(
            dim=12, epochs=4, batch_size=128, seed=3, early_stop=False, workers=2
        )
        cfg = ObsConfig(
            log_level="error",
            log_json=str(events_path),
            metrics_out=str(manifest_path),
        )
        with session(cfg, run_config={"chaos": "worker-kill"}, stream=io.StringIO()):
            result = train_hogwild(corpus, config, task_fn=injector)

        assert (tmp_path / "fired").exists(), "fault never fired"
        assert result.epochs_run == config.epochs
        assert np.all(np.isfinite(result.vectors))

        # No torn lines: the dead worker never shared the parent's file
        # handle (fork guard), so parse_jsonl succeeds on every line.
        events = parse_jsonl(events_path)
        names = [e["event"] for e in events]
        assert names[0] == "run.begin" and names[-1] == "run.end"
        # The parent-side pool saw the breakage and said so: the
        # watchdog respawned the dead worker and reassigned its item.
        assert "supervisor.respawn" in names
        epoch_ends = [
            e for e in events
            if e["event"] == "span.end" and e["span"] == "train.epoch"
        ]
        assert len(epoch_ends) == config.epochs
        assert all(e["status"] == "ok" for e in epoch_ends)

        manifest = load_manifest(manifest_path)
        counters = manifest["metrics"]["counters"]
        assert counters["train.epochs_run"] == config.epochs
        assert manifest["config"] == {"chaos": "worker-kill"}


class TestInjectedFaultEvents:
    def test_in_process_fault_is_recorded(self, tmp_path):
        events_path = tmp_path / "events.jsonl"

        def target(x):
            return x + 1

        injector = FaultInjector(target, fail_on_calls={1})
        cfg = ObsConfig(log_level="error", log_json=str(events_path))
        with session(cfg, stream=io.StringIO()) as rec:
            with pytest.raises(InjectedFault):
                injector(1)
            assert injector(1) == 2
            counters = rec.registry.snapshot()["counters"]
        assert counters["fault.injected"] == 1
        faults = [
            e for e in parse_jsonl(events_path) if e["event"] == "fault.injected"
        ]
        assert len(faults) == 1
        assert faults[0]["kind"] == "fail"
        assert faults[0]["call"] == 1
