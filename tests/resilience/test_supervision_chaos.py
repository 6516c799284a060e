"""Pipeline-level supervision chaos: every parallel stage self-heals.

These are the acceptance tests for the self-healing layer: a walk worker
killed mid-wave and a Hogwild worker killed or hung mid-epoch must leave
a completed run with identical-shape output, ``supervisor.respawns`` in
the manifest, and nothing in /dev/shm; a corrupted checkpoint must be
quarantined and the phase restarted cleanly; and with supervision
*configured but idle* (``workers=1``, no faults) the pipeline stays
bitwise-identical to the serial path.
"""

import io

import numpy as np
import pytest

from repro.core.model import V2V, V2VConfig
from repro.core.trainer import TrainConfig, train_embeddings
from repro.graph.generators import planted_partition
from repro.obs.manifest import load_manifest
from repro.obs.recorder import ObsConfig, session
from repro.parallel.hogwild import hogwild_supported
from repro.pipeline import ExecutionContext
from repro.resilience.chaos import FaultInjector
from repro.resilience.supervisor import SupervisorConfig
from repro.walks import engine
from repro.walks.engine import RandomWalkConfig, generate_walks

from tests.parallel.test_shm import shm_entries

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not hogwild_supported(), reason="platform has no shared memory"
    ),
]

SUPERVISED = SupervisorConfig(
    worker_deadline=2.0, max_respawns=5, poll_interval=0.05
)


@pytest.fixture(scope="module")
def graph():
    return planted_partition(n=90, groups=3, alpha=0.7, inter_edges=10, seed=0)


@pytest.fixture(scope="module")
def corpus(graph):
    return generate_walks(
        graph, RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=5)
    )


@pytest.fixture()
def no_leaks():
    before = shm_entries()
    yield
    leaked = shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def _train_config(**overrides):
    base = dict(
        dim=12,
        epochs=3,
        batch_size=128,
        seed=3,
        early_stop=False,
        workers=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _chaos(**faults):
    """A supervised context whose fault hook wraps each pooled task."""
    return ExecutionContext(
        supervisor=SUPERVISED,
        fault_injector=lambda task: FaultInjector(task, **faults),
    )


class TestHogwildKilledWorker:
    def test_killed_worker_is_respawned_and_epoch_completes(
        self, corpus, tmp_path, no_leaks
    ):
        manifest_path = tmp_path / "run.json"
        chaos = _chaos(
            exit_on_calls={1},
            only_in_subprocess=True,
            once_marker=tmp_path / "fired",
        )
        cfg = ObsConfig(log_level="error", metrics_out=str(manifest_path))
        with session(cfg, run_config={"chaos": "kill"}, stream=io.StringIO()):
            result = train_embeddings(corpus, _train_config(), context=chaos)

        assert (tmp_path / "fired").exists(), "fault never fired"
        assert result.epochs_run == 3
        assert result.vectors.shape == (corpus.num_vertices, 12)
        assert np.all(np.isfinite(result.vectors))
        counters = load_manifest(manifest_path)["metrics"]["counters"]
        assert counters["supervisor.respawns"] >= 1


class TestHogwildHungWorker:
    def test_hung_worker_completes_epoch_via_respawn(
        self, corpus, tmp_path, no_leaks
    ):
        # The acceptance scenario: a worker that would sleep for an hour
        # mid-epoch is killed within the deadline budget and its shard
        # re-run — no indefinite stall.
        manifest_path = tmp_path / "run.json"
        chaos = _chaos(
            hang_on_calls={1},
            hang_seconds=3600.0,
            only_in_subprocess=True,
            once_marker=tmp_path / "fired",
        )
        cfg = ObsConfig(log_level="error", metrics_out=str(manifest_path))
        with session(cfg, run_config={"chaos": "hang"}, stream=io.StringIO()):
            result = train_embeddings(corpus, _train_config(), context=chaos)

        assert (tmp_path / "fired").exists(), "fault never fired"
        assert result.epochs_run == 3
        assert np.all(np.isfinite(result.vectors))
        counters = load_manifest(manifest_path)["metrics"]["counters"]
        assert counters["supervisor.respawns"] >= 1


class TestWalkWorkerKilled:
    def test_killed_chunk_worker_yields_identical_corpus(
        self, graph, tmp_path, no_leaks, monkeypatch
    ):
        config = RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=5)
        baseline = generate_walks(graph, config)

        manifest_path = tmp_path / "run.json"
        injector = FaultInjector(
            engine._walk_rows,
            exit_on_calls={1},
            only_in_subprocess=True,
            once_marker=tmp_path / "fired",
        )
        monkeypatch.setattr(engine, "_walk_rows", injector)
        cfg = ObsConfig(log_level="error", metrics_out=str(manifest_path))
        with session(cfg, run_config={"chaos": "walk-kill"}, stream=io.StringIO()):
            supervised = generate_walks(
                graph,
                config,
                context=ExecutionContext(workers=2, supervisor=SUPERVISED),
            )

        assert (tmp_path / "fired").exists(), "fault never fired"
        # A row task rewrites exactly its own rows with counter-based
        # draws, so re-running it is idempotent: bitwise-identical corpus.
        np.testing.assert_array_equal(supervised.walks, baseline.walks)
        counters = load_manifest(manifest_path)["metrics"]["counters"]
        assert counters["supervisor.respawns"] >= 1


class TestCorruptCheckpointRestart:
    def test_corrupt_walk_chunk_quarantined_then_recomputed(self, graph, tmp_path):
        config = RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=5)
        ckpt_dir = tmp_path / "walks"
        baseline = generate_walks(
            graph,
            config,
            context=ExecutionContext(workers=2, checkpoint_dir=ckpt_dir),
        )
        # The corrupt_file fault mangles one completed chunk on disk.
        victim = ckpt_dir / "walks-0000.ckpt.npz"
        assert victim.exists()
        injector = FaultInjector(
            lambda: None, corrupt_on_calls={1}, corrupt_path=victim
        )
        injector()
        resumed = generate_walks(
            graph,
            config,
            context=ExecutionContext(
                workers=2, checkpoint_dir=ckpt_dir, resume=True
            ),
        )
        # Quarantined aside, recomputed, and bitwise-identical anyway.
        np.testing.assert_array_equal(resumed.walks, baseline.walks)
        assert any(".corrupt." in p.name for p in ckpt_dir.iterdir())
        assert victim.exists()  # the recomputed replacement

    def test_corrupt_trainer_checkpoint_restarts_phase(self, corpus, tmp_path):
        config = TrainConfig(dim=8, epochs=2, seed=1, early_stop=False)
        fresh = train_embeddings(corpus, config)
        ckpt_dir = tmp_path / "ckpt"
        train_embeddings(
            corpus, config, context=ExecutionContext(checkpoint_dir=ckpt_dir)
        )
        victim = ckpt_dir / "trainer.ckpt.npz"
        assert victim.exists()
        injector = FaultInjector(
            lambda: None, corrupt_on_calls={1}, corrupt_path=victim
        )
        injector()
        # Resume must NOT crash with a BadZipFile: the corrupt snapshot is
        # quarantined and training restarts from scratch, deterministically.
        resumed = train_embeddings(
            corpus,
            config,
            context=ExecutionContext(checkpoint_dir=ckpt_dir, resume=True),
        )
        np.testing.assert_array_equal(resumed.vectors, fresh.vectors)
        assert any(".corrupt." in p.name for p in ckpt_dir.iterdir())


class TestSupervisionDisabledIdentity:
    def test_workers_1_with_supervision_config_is_bitwise_serial(self, graph):
        # Acceptance criterion: supervision configured but inert
        # (workers=1, no faults) must not perturb the numerics.
        config = V2VConfig(
            dim=8, epochs=2, walks_per_vertex=2, walk_length=10, seed=0
        )
        supervised = ExecutionContext(
            supervisor=SupervisorConfig(worker_deadline=5.0, max_respawns=2)
        )
        a = V2V(config).fit(graph).vectors
        b = V2V(config).fit(graph, context=supervised).vectors
        np.testing.assert_array_equal(a, b)
