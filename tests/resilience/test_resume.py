"""Kill-and-resume round trips for the walk engine, trainer, and facade.

The contract under test: a run that crashes after any checkpoint and is
restarted with ``resume=True`` must finish with results bitwise-identical
to an uninterrupted run of the same seeded configuration.
"""

import numpy as np
import pytest

from repro.core.model import V2V, V2VConfig
from repro.core.trainer import TrainConfig, train_embeddings
from repro.graph.generators import planted_partition
from repro.pipeline import ExecutionContext
from repro.resilience.chaos import FaultInjector, InjectedFault
from repro.resilience.checkpoint import CheckpointManager
from repro.walks.engine import RandomWalkConfig, generate_walks


@pytest.fixture(scope="module")
def graph():
    return planted_partition(n=60, groups=3, alpha=0.6, inter_edges=8, seed=0)


WALK_CFG = dict(walks_per_vertex=2, walk_length=12, seed=5)
TRAIN_CFG = dict(dim=8, epochs=4, batch_size=64, seed=3, early_stop=False)


class TestWalkResume:
    def test_checkpointed_run_matches_rerun(self, graph, tmp_path):
        cfg = RandomWalkConfig(**WALK_CFG)
        first = generate_walks(
            graph, cfg, context=ExecutionContext(checkpoint_dir=tmp_path),
            checkpoint_chunks=4,
        )
        resumed = generate_walks(
            graph,
            cfg,
            context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
            checkpoint_chunks=4,
        )
        np.testing.assert_array_equal(first.walks, resumed.walks)
        assert len(CheckpointManager(tmp_path).names()) == 4

    def test_partial_chunks_are_completed(self, graph, tmp_path):
        cfg = RandomWalkConfig(**WALK_CFG)
        full = generate_walks(
            graph,
            cfg,
            context=ExecutionContext(checkpoint_dir=tmp_path / "full"),
            checkpoint_chunks=4,
        )
        # Simulate a crash that persisted only the first two chunks.
        mgr_full = CheckpointManager(tmp_path / "full")
        mgr_part = CheckpointManager(tmp_path / "part")
        for name in mgr_full.names()[:2]:
            ckpt = mgr_full.load(name)
            mgr_part.save(name, ckpt.arrays, ckpt.meta)
        resumed = generate_walks(
            graph,
            cfg,
            context=ExecutionContext(
                checkpoint_dir=tmp_path / "part", resume=True
            ),
            checkpoint_chunks=4,
        )
        np.testing.assert_array_equal(full.walks, resumed.walks)
        assert len(mgr_part.names()) == 4

    def test_fingerprint_mismatch_refuses_resume(self, graph, tmp_path):
        generate_walks(
            graph,
            RandomWalkConfig(**WALK_CFG),
            context=ExecutionContext(checkpoint_dir=tmp_path),
            checkpoint_chunks=4,
        )
        other = RandomWalkConfig(**{**WALK_CFG, "seed": 6})
        with pytest.raises(ValueError, match="different walk configuration"):
            generate_walks(
                graph,
                other,
                context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
                checkpoint_chunks=4,
            )

    def test_resume_across_a_changed_chunk_count(self, graph, tmp_path):
        # Chunks record their rows, so a run checkpointed at 4 chunks
        # resumes at 2 (here: after a crash that kept 3 of the 4).
        cfg = RandomWalkConfig(**WALK_CFG)
        full = generate_walks(
            graph,
            cfg,
            context=ExecutionContext(checkpoint_dir=tmp_path / "full"),
            checkpoint_chunks=4,
        )
        mgr_full = CheckpointManager(tmp_path / "full")
        mgr_part = CheckpointManager(tmp_path / "part")
        for name in mgr_full.names()[:3]:
            ckpt = mgr_full.load(name)
            mgr_part.save(name, ckpt.arrays, ckpt.meta)
        for ckpt_dir in (tmp_path / "full", tmp_path / "part"):
            resumed = generate_walks(
                graph,
                cfg,
                context=ExecutionContext(checkpoint_dir=ckpt_dir, resume=True),
                checkpoint_chunks=2,
            )
            np.testing.assert_array_equal(full.walks, resumed.walks)

    def test_int64_chunks_resume_to_the_same_corpus(self, graph, tmp_path):
        # Walk chunks were saved as int64 before tokens became int32; a
        # run resumed from such chunks (all or some of them) must build
        # the same corpus.
        cfg = RandomWalkConfig(**WALK_CFG)
        full = generate_walks(
            graph,
            cfg,
            context=ExecutionContext(checkpoint_dir=tmp_path / "full"),
            checkpoint_chunks=4,
        )
        mgr_full = CheckpointManager(tmp_path / "full")
        for kept, ckpt_dir in ((4, tmp_path / "all"), (2, tmp_path / "some")):
            mgr = CheckpointManager(ckpt_dir)
            for name in mgr_full.names()[:kept]:
                ckpt = mgr_full.load(name)
                wide = ckpt.arrays["walks"].astype(np.int64)
                mgr.save(name, {"walks": wide}, ckpt.meta)
                assert mgr.load(name).arrays["walks"].dtype == np.int64
            resumed = generate_walks(
                graph,
                cfg,
                context=ExecutionContext(checkpoint_dir=ckpt_dir, resume=True),
                checkpoint_chunks=4,
            )
            assert resumed.walks.dtype == full.walks.dtype
            np.testing.assert_array_equal(full.walks, resumed.walks)
            np.testing.assert_array_equal(full.lengths, resumed.lengths)

    def test_store_input_writes_and_resumes_checkpoints(self, graph, tmp_path):
        from repro.graph.store import GraphStore
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.recorder import Recorder, use

        store = GraphStore.build(graph, tmp_path / "store", shards=3, seed=1)
        cfg = RandomWalkConfig(**WALK_CFG)
        first = generate_walks(
            store,
            cfg,
            context=ExecutionContext(checkpoint_dir=tmp_path / "ckpt"),
            checkpoint_chunks=3,
        )
        assert len(CheckpointManager(tmp_path / "ckpt").names()) == 3
        registry = MetricsRegistry()
        with use(Recorder(registry)):
            resumed = generate_walks(
                store,
                cfg,
                context=ExecutionContext(
                    checkpoint_dir=tmp_path / "ckpt", resume=True
                ),
                checkpoint_chunks=3,
            )
        counters = registry.snapshot()["counters"]
        assert counters["walks.chunks_resumed"] == 3
        assert "walks.chunks_computed" not in counters
        np.testing.assert_array_equal(first.walks, resumed.walks)
        np.testing.assert_array_equal(
            first.walks, generate_walks(graph, cfg).walks
        )

    def test_without_resume_recomputes(self, graph, tmp_path):
        cfg = RandomWalkConfig(**WALK_CFG)
        first = generate_walks(
            graph, cfg, context=ExecutionContext(checkpoint_dir=tmp_path),
            checkpoint_chunks=2,
        )
        again = generate_walks(
            graph,
            cfg,
            context=ExecutionContext(checkpoint_dir=tmp_path, resume=False),
            checkpoint_chunks=2,
        )
        np.testing.assert_array_equal(first.walks, again.walks)


class _CrashAfterEpoch:
    """Epoch callback that raises once the given epoch completes."""

    def __init__(self, epoch: int) -> None:
        self.injector = FaultInjector(lambda *a: None, fail_on_calls={epoch + 1})

    def __call__(self, epoch: int, mean_loss: float) -> None:
        self.injector(epoch, mean_loss)


@pytest.fixture(scope="module")
def corpus(graph):
    return generate_walks(graph, RandomWalkConfig(**WALK_CFG))


class TestTrainerResume:
    @pytest.mark.parametrize("crash_after", [0, 1, 2])
    def test_kill_and_resume_is_bitwise_identical(self, corpus, tmp_path, crash_after):
        config = TrainConfig(**TRAIN_CFG)
        baseline = train_embeddings(corpus, config)

        ckpt_dir = tmp_path / f"crash{crash_after}"
        with pytest.raises(InjectedFault):
            train_embeddings(
                corpus,
                config,
                context=ExecutionContext(checkpoint_dir=ckpt_dir),
                epoch_callback=_CrashAfterEpoch(crash_after),
            )
        assert CheckpointManager(ckpt_dir).exists("trainer")

        resumed = train_embeddings(
            corpus,
            config,
            context=ExecutionContext(checkpoint_dir=ckpt_dir, resume=True),
        )
        np.testing.assert_array_equal(baseline.vectors, resumed.vectors)
        assert resumed.loss_history == baseline.loss_history
        assert resumed.epochs_run == baseline.epochs_run

    def test_resume_of_finished_run_returns_final_state(self, corpus, tmp_path):
        config = TrainConfig(**TRAIN_CFG)
        done = train_embeddings(
            corpus, config, context=ExecutionContext(checkpoint_dir=tmp_path)
        )
        again = train_embeddings(
            corpus,
            config,
            context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
        )
        np.testing.assert_array_equal(done.vectors, again.vectors)
        assert again.epochs_run == done.epochs_run

    def test_checkpointing_does_not_change_results(self, corpus, tmp_path):
        config = TrainConfig(**TRAIN_CFG)
        plain = train_embeddings(corpus, config)
        checkpointed = train_embeddings(
            corpus, config, context=ExecutionContext(checkpoint_dir=tmp_path)
        )
        np.testing.assert_array_equal(plain.vectors, checkpointed.vectors)

    def test_config_mismatch_refuses_resume(self, corpus, tmp_path):
        train_embeddings(
            corpus,
            TrainConfig(**TRAIN_CFG),
            context=ExecutionContext(checkpoint_dir=tmp_path),
        )
        other = TrainConfig(**{**TRAIN_CFG, "lr": 0.01})
        with pytest.raises(ValueError, match="different configuration"):
            train_embeddings(
                corpus,
                other,
                context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
            )

    def test_kernel_mismatch_refuses_resume(self, corpus, tmp_path, monkeypatch):
        # A snapshot written when "auto" still resolved to the float64
        # reference kernel must not be cast and resumed on the f32 one.
        import repro.core.trainer as trainer

        with monkeypatch.context() as patch:
            patch.setattr(trainer, "resolve_kernel", lambda config: "reference")
            train_embeddings(
                corpus,
                TrainConfig(**TRAIN_CFG),
                context=ExecutionContext(checkpoint_dir=tmp_path),
            )
        snapshot = CheckpointManager(tmp_path).load("trainer")
        assert snapshot.arrays["w_in"].dtype == np.float64
        with pytest.raises(ValueError, match="different configuration"):
            train_embeddings(
                corpus,
                TrainConfig(**TRAIN_CFG),
                context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
            )

    def test_early_stop_state_survives_resume(self, corpus, tmp_path):
        # With early stopping on, convergence counters (best loss, stall)
        # must be part of the snapshot or a resumed run stops late.
        config = TrainConfig(
            **{**TRAIN_CFG, "early_stop": True, "epochs": 6, "tol": 0.5}
        )
        baseline = train_embeddings(corpus, config)
        with pytest.raises(InjectedFault):
            train_embeddings(
                corpus,
                config,
                context=ExecutionContext(checkpoint_dir=tmp_path),
                epoch_callback=_CrashAfterEpoch(0),
            )
        resumed = train_embeddings(
            corpus,
            config,
            context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
        )
        assert resumed.converged == baseline.converged
        assert resumed.loss_history == baseline.loss_history
        np.testing.assert_array_equal(baseline.vectors, resumed.vectors)


class TestFacadeResume:
    def test_fit_resume_after_walk_stage_crash(self, graph, tmp_path):
        # Simulate a run killed between the walk stage and training:
        # only the walk checkpoints exist; resume must finish training
        # and match a checkpointed run that was never interrupted.
        config = V2VConfig(
            dim=8, walks_per_vertex=2, walk_length=12, epochs=3, seed=2
        )
        uninterrupted = V2V(config).fit(
            graph, context=ExecutionContext(checkpoint_dir=tmp_path / "a")
        )
        generate_walks(
            graph,
            config.walk_config(),
            context=ExecutionContext(checkpoint_dir=tmp_path / "b" / "walks"),
        )  # walk stage completed; trainer checkpoint absent
        resumed = V2V(config).fit(
            graph,
            context=ExecutionContext(checkpoint_dir=tmp_path / "b", resume=True),
        )
        np.testing.assert_array_equal(uninterrupted.vectors, resumed.vectors)

    def test_fit_resume_matches_checkpointed_run(self, graph, tmp_path):
        config = V2VConfig(
            dim=8, walks_per_vertex=2, walk_length=12, epochs=3, seed=2
        )
        first = V2V(config).fit(
            graph, context=ExecutionContext(checkpoint_dir=tmp_path)
        )
        resumed = V2V(config).fit(
            graph, context=ExecutionContext(checkpoint_dir=tmp_path, resume=True)
        )
        np.testing.assert_array_equal(first.vectors, resumed.vectors)
        mgr = CheckpointManager(tmp_path / "walks")
        assert mgr.names()  # walk chunks persisted under <dir>/walks
        assert CheckpointManager(tmp_path).exists("trainer")
