"""Run lifecycle control: tokens, deadlines, signals, graceful shutdown.

Covers the cooperative-cancellation contract end to end: the primitives
(:class:`CancellationToken` / :class:`Deadline` / the ambient
:class:`CancelScope`), signal routing (:func:`signal_guard`), manifest
status classification, CLI exit codes, the atexit shared-memory sweep,
and — the headline guarantee — that a run interrupted mid-training and
resumed produces embeddings bitwise-identical to an uninterrupted run
of the same seed (the golden-checksum style assertion from
``tests/pipeline/test_golden.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.trainer import TrainConfig, train_embeddings
from repro.graph.generators import planted_partition
from repro.pipeline import ExecutionContext
from repro.resilience.chaos import FaultInjector
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.lifecycle import (
    EXIT_DEADLINE,
    EXIT_INTERRUPTED,
    NULL_SCOPE,
    CancellationToken,
    CancelScope,
    Deadline,
    RunInterrupted,
    cancel_scope,
    current_cancel_scope,
    expire_active_deadline,
    signal_guard,
)
from repro.resilience.supervisor import SupervisorConfig
from repro.walks.engine import RandomWalkConfig, generate_walks


@pytest.fixture(scope="module")
def graph():
    return planted_partition(n=60, groups=3, alpha=0.6, inter_edges=8, seed=0)


WALK_CFG = dict(walks_per_vertex=2, walk_length=12, seed=5)
TRAIN_CFG = dict(dim=8, epochs=4, batch_size=64, seed=3, early_stop=False)


def _digest(vectors: np.ndarray) -> str:
    data = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------
class TestCancellationToken:
    def test_first_cancel_wins(self):
        token = CancellationToken()
        assert not token.cancelled
        assert token.cancel("signal", detail="SIGTERM")
        assert not token.cancel("deadline")  # later calls are no-ops
        assert token.cancelled
        assert token.reason == "signal"
        assert token.detail == "SIGTERM"

    def test_on_cancel_fires_once_and_late_subscribers_fire_immediately(self):
        token = CancellationToken()
        fired: list[str] = []
        token.on_cancel(lambda: fired.append("early"))
        token.cancel()
        assert fired == ["early"]
        token.on_cancel(lambda: fired.append("late"))
        assert fired == ["early", "late"]

    def test_unsubscribe(self):
        token = CancellationToken()
        fired: list[int] = []
        unsubscribe = token.on_cancel(lambda: fired.append(1))
        unsubscribe()
        token.cancel()
        assert fired == []

    def test_broken_observer_does_not_mask_cancellation(self):
        token = CancellationToken()
        token.on_cancel(lambda: 1 / 0)
        assert token.cancel()
        assert token.cancelled


class TestDeadline:
    def test_remaining_and_expiry(self):
        deadline = Deadline(60.0)
        assert not deadline.expired()
        assert 0.0 < deadline.remaining() <= 60.0
        deadline.force_expire()
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_zero_budget_expires_immediately(self):
        assert Deadline(0.0).expired()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Deadline(-1.0)


class TestCancelScope:
    def test_null_scope_never_raises(self):
        NULL_SCOPE.check()
        assert not NULL_SCOPE.cancelled()
        assert NULL_SCOPE.reason() is None

    def test_token_cancel_raises_with_exit_code_130(self):
        scope = CancelScope(CancellationToken(), None)
        scope.check()
        scope.token.cancel("signal", detail="SIGTERM")
        with pytest.raises(RunInterrupted) as err:
            scope.check()
        assert err.value.reason == "signal"
        assert err.value.exit_code == EXIT_INTERRUPTED

    def test_deadline_expiry_raises_124_and_cancels_token(self):
        token = CancellationToken()
        deadline = Deadline(60.0)
        scope = CancelScope(token, deadline)
        deadline.force_expire()
        with pytest.raises(RunInterrupted) as err:
            scope.check()
        assert err.value.reason == "deadline"
        assert err.value.exit_code == EXIT_DEADLINE
        # on_cancel observers (e.g. Hogwild slab broadcast) must fire
        # for deadlines too — check() routes expiry through the token.
        assert token.cancelled
        assert token.reason == "deadline"

    def test_ambient_scope_nesting_and_inheritance(self):
        assert current_cancel_scope() is NULL_SCOPE
        token = CancellationToken()
        deadline = Deadline(60.0)
        with cancel_scope(token=token):
            assert current_cancel_scope().token is token
            with cancel_scope(deadline=deadline):
                inner = current_cancel_scope()
                assert inner.token is token  # inherited from outer
                assert inner.deadline is deadline
            assert current_cancel_scope().deadline is None
        assert current_cancel_scope() is NULL_SCOPE

    def test_empty_scope_is_read_only_view(self):
        token = CancellationToken()
        with cancel_scope(token=token):
            with cancel_scope() as view:
                assert view.token is token

    def test_expire_active_deadline(self):
        assert not expire_active_deadline()  # nothing active
        with cancel_scope(deadline=Deadline(60.0)) as scope:
            assert expire_active_deadline()
            assert scope.deadline.expired()


class TestSignalGuard:
    def test_sigterm_requests_cancellation(self):
        token = CancellationToken()
        with signal_guard(token, hard_exit=False):
            os.kill(os.getpid(), signal.SIGTERM)
            for _ in range(100):
                if token.cancelled:
                    break
                time.sleep(0.01)
        assert token.cancelled
        assert token.reason == "signal"
        assert token.detail == "SIGTERM"

    def test_previous_handler_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with signal_guard(CancellationToken(), hard_exit=False):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_deadline_timer_cancels_token(self):
        token = CancellationToken()
        with signal_guard(token, deadline=Deadline(0.05), hard_exit=False):
            for _ in range(200):
                if token.cancelled:
                    break
                time.sleep(0.01)
        assert token.cancelled
        assert token.reason == "deadline"


class TestExecutionContextLifecycle:
    def test_context_carries_token_and_deadline(self):
        token = CancellationToken()
        ctx = ExecutionContext(cancellation=token, deadline=Deadline(60.0))
        assert not ctx.cancel_requested
        ctx.check_cancelled()
        token.cancel()
        assert ctx.cancel_requested
        with pytest.raises(RunInterrupted):
            ctx.check_cancelled()

    def test_lifecycle_activates_ambient_scope(self):
        token = CancellationToken()
        ctx = ExecutionContext(cancellation=token)
        with ctx.lifecycle():
            assert current_cancel_scope().token is token
        assert current_cancel_scope() is NULL_SCOPE

    def test_plain_context_reads_ambient_scope(self):
        ctx = ExecutionContext()
        token = CancellationToken()
        with cancel_scope(token=token):
            token.cancel()
            assert ctx.cancel_requested


# ---------------------------------------------------------------------------
# Engines stop at checkpointable boundaries
# ---------------------------------------------------------------------------
class _KillAfterEpoch:
    """Epoch callback that SIGTERMs the current process once."""

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.fired = False

    def __call__(self, epoch: int, mean_loss: float) -> None:
        if epoch == self.epoch and not self.fired:
            self.fired = True
            os.kill(os.getpid(), signal.SIGTERM)


@pytest.fixture(scope="module")
def corpus(graph):
    return generate_walks(graph, RandomWalkConfig(**WALK_CFG))


class TestCooperativeStops:
    def test_serial_trainer_pre_cancelled_raises_with_resume_point(
        self, corpus, tmp_path
    ):
        token = CancellationToken()
        token.cancel("signal")
        with pytest.raises(RunInterrupted):
            train_embeddings(
                corpus,
                TrainConfig(**TRAIN_CFG),
                context=ExecutionContext(
                    checkpoint_dir=tmp_path, cancellation=token
                ),
            )
        # Even a cancel that lands before the first epoch leaves a valid
        # resume point (the initial state), so --resume always works.
        assert CheckpointManager(tmp_path).exists("trainer")
        baseline = train_embeddings(corpus, TrainConfig(**TRAIN_CFG))
        resumed = train_embeddings(
            corpus,
            TrainConfig(**TRAIN_CFG),
            context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
        )
        assert _digest(resumed.vectors) == _digest(baseline.vectors)

    def test_walk_generation_honors_deadline(self, graph):
        deadline = Deadline(60.0)
        deadline.force_expire()
        with pytest.raises(RunInterrupted) as err:
            generate_walks(
                graph,
                RandomWalkConfig(**WALK_CFG),
                context=ExecutionContext(deadline=deadline),
            )
        assert err.value.reason == "deadline"

    def test_pipeline_stops_between_stages(self, graph):
        from repro.pipeline import Pipeline, WalkStage

        token = CancellationToken()
        token.cancel("signal")
        with pytest.raises(RunInterrupted):
            Pipeline([WalkStage(RandomWalkConfig(**WALK_CFG))]).execute(
                graph, context=ExecutionContext(cancellation=token)
            )


# ---------------------------------------------------------------------------
# The headline guarantee: interrupt → final checkpoint → bitwise resume
# ---------------------------------------------------------------------------
def _train_serial(corpus, ctx, callback=None):
    return train_embeddings(
        corpus, TrainConfig(**TRAIN_CFG), context=ctx, epoch_callback=callback
    )


def _train_streaming(corpus, ctx, callback=None):
    return train_embeddings(
        corpus,
        TrainConfig(**TRAIN_CFG, streaming=True, stream_rows=8),
        context=ctx,
        epoch_callback=callback,
    )


def _train_hogwild1(corpus, ctx, callback=None):
    return train_embeddings(
        corpus,
        TrainConfig(**TRAIN_CFG, workers=1),
        context=ctx,
        epoch_callback=callback,
    )


class TestInterruptResumeIdentity:
    """SIGTERM mid-run, then --resume ⇒ bitwise-identical embeddings."""

    @pytest.mark.parametrize(
        "train",
        [_train_serial, _train_streaming, _train_hogwild1],
        ids=["serial", "streaming", "hogwild1"],
    )
    def test_trainer_interrupt_resume_matches_uninterrupted(
        self, corpus, tmp_path, train
    ):
        baseline = train(corpus, ExecutionContext())

        token = CancellationToken()
        ctx = ExecutionContext(checkpoint_dir=tmp_path, cancellation=token)
        with signal_guard(token, hard_exit=False):
            with pytest.raises(RunInterrupted) as err:
                train(corpus, ctx, _KillAfterEpoch(1))
        assert err.value.reason == "signal"
        # The interrupted run left a final, resume-safe snapshot.
        assert CheckpointManager(tmp_path).exists("trainer")

        resumed = train(
            corpus,
            ExecutionContext(checkpoint_dir=tmp_path, resume=True),
        )
        assert _digest(resumed.vectors) == _digest(baseline.vectors)
        assert resumed.loss_history == baseline.loss_history
        assert resumed.epochs_run == baseline.epochs_run

    def test_supervised_walks_interrupt_resume_matches_uninterrupted(
        self, graph, tmp_path
    ):
        cfg = RandomWalkConfig(**WALK_CFG)
        uninterrupted = generate_walks(
            graph,
            cfg,
            context=ExecutionContext(checkpoint_dir=tmp_path / "ref"),
            checkpoint_chunks=4,
        )

        # A supervised worker fires SIGTERM at the parent (the
        # constructing process) mid-wave — external preemption chaos.
        marker = tmp_path / "fired"
        token = CancellationToken()
        ctx = ExecutionContext(
            checkpoint_dir=tmp_path / "run",
            workers=2,
            supervisor=SupervisorConfig(worker_deadline=30.0),
            cancellation=token,
            fault_injector=lambda fn: FaultInjector(
                fn, signal_on_calls={1}, once_marker=marker
            ),
        )
        with signal_guard(token, hard_exit=False):
            with pytest.raises(RunInterrupted):
                generate_walks(graph, cfg, context=ctx, checkpoint_chunks=4)
        assert token.cancelled

        resumed = generate_walks(
            graph,
            cfg,
            context=ExecutionContext(
                checkpoint_dir=tmp_path / "run", workers=2, resume=True
            ),
            checkpoint_chunks=4,
        )
        np.testing.assert_array_equal(uninterrupted.walks, resumed.walks)

    def test_deadline_fault_interrupts_and_resumes(self, corpus, tmp_path):
        baseline = _train_serial(corpus, ExecutionContext())

        # FaultInjector's `deadline` kind force-expires the active
        # budget; the trainer stops at the next batch boundary.
        injector = FaultInjector(lambda *a: None, deadline_on_calls={2})
        ctx = ExecutionContext(
            checkpoint_dir=tmp_path,
            cancellation=CancellationToken(),
            deadline=Deadline(3600.0),
        )
        with pytest.raises(RunInterrupted) as err:
            _train_serial(corpus, ctx, lambda e, ml: injector(e, ml))
        assert err.value.reason == "deadline"
        assert err.value.exit_code == EXIT_DEADLINE

        resumed = _train_serial(
            corpus, ExecutionContext(checkpoint_dir=tmp_path, resume=True)
        )
        assert _digest(resumed.vectors) == _digest(baseline.vectors)


# ---------------------------------------------------------------------------
# Manifest status + CLI exit codes
# ---------------------------------------------------------------------------
class TestManifestStatus:
    def test_build_manifest_rejects_unknown_status(self):
        from repro.obs.manifest import ManifestError, build_manifest
        from repro.obs.metrics import MetricsRegistry

        with pytest.raises(ManifestError, match="status"):
            build_manifest(MetricsRegistry(), status="exploded")

    @pytest.mark.parametrize(
        "raiser, status, reason",
        [
            (lambda: None, "completed", None),
            (
                lambda: (_ for _ in ()).throw(RunInterrupted("signal")),
                "interrupted",
                "signal",
            ),
            (
                lambda: (_ for _ in ()).throw(KeyboardInterrupt()),
                "interrupted",
                "keyboard_interrupt",
            ),
            (
                lambda: (_ for _ in ()).throw(ValueError("boom")),
                "failed",
                "ValueError",
            ),
        ],
        ids=["completed", "interrupted", "ctrl-c", "failed"],
    )
    def test_session_records_terminal_status(
        self, tmp_path, raiser, status, reason
    ):
        from repro.obs.recorder import ObsConfig, session

        out = tmp_path / "manifest.json"
        config = ObsConfig(metrics_out=str(out))
        try:
            with session(config, run_config={"cmd": "test"}):
                raiser()
        except (RunInterrupted, KeyboardInterrupt, ValueError):
            pass
        manifest = json.loads(out.read_text())
        assert manifest["status"] == status
        assert manifest["interrupt_reason"] == reason

    def test_report_renders_status_line(self, tmp_path):
        from repro.obs.manifest import build_manifest, write_manifest
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.report import render_report

        path = tmp_path / "m.json"
        manifest = write_manifest(
            path,
            build_manifest(
                MetricsRegistry(), status="interrupted", interrupt_reason="deadline"
            ),
        )
        assert "status: interrupted (reason: deadline)" in render_report(manifest)


class TestCliExitCodes:
    @pytest.fixture()
    def edge_list(self, graph, tmp_path):
        from repro.graph.io import write_edge_list

        path = tmp_path / "graph.edges"
        write_edge_list(graph, path)
        return path

    def test_expired_deadline_exits_124_with_interrupted_manifest(
        self, edge_list, tmp_path
    ):
        from repro.cli import main

        out = tmp_path / "vec.npz"
        manifest = tmp_path / "manifest.json"
        code = main(
            [
                "embed",
                str(edge_list),
                "-o",
                str(out),
                "--dim",
                "8",
                "--walks",
                "2",
                "--length",
                "10",
                "--epochs",
                "2",
                "--deadline",
                "0",
                "--checkpoint-dir",
                str(tmp_path / "ckpt"),
                "--metrics-out",
                str(manifest),
            ]
        )
        assert code == EXIT_DEADLINE
        recorded = json.loads(manifest.read_text())
        assert recorded["status"] == "interrupted"
        assert recorded["interrupt_reason"] == "deadline"
        assert recorded["metrics"]["counters"].get("lifecycle.interrupted")

    def test_keyboard_interrupt_exits_130_without_traceback(self, monkeypatch):
        import repro.cli as cli

        def _boom(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli.COMMANDS, "report", _boom)
        assert cli.main(["report", "whatever.json"]) == EXIT_INTERRUPTED

    def test_resumed_cli_run_matches_uninterrupted(self, edge_list, tmp_path):
        from repro.cli import main

        common = [
            "embed",
            str(edge_list),
            "--dim",
            "8",
            "--walks",
            "2",
            "--length",
            "10",
            "--epochs",
            "2",
            "--seed",
            "7",
        ]
        ref = tmp_path / "ref.npz"
        assert (
            main(common + ["-o", str(ref), "--checkpoint-dir", str(tmp_path / "a")])
            == 0
        )
        # Interrupt via expired deadline, then resume to completion.
        out = tmp_path / "out.npz"
        ckpt = str(tmp_path / "b")
        interrupted = main(
            common + ["-o", str(out), "--checkpoint-dir", ckpt, "--deadline", "0"]
        )
        assert interrupted == EXIT_DEADLINE
        assert (
            main(common + ["-o", str(out), "--checkpoint-dir", ckpt, "--resume"])
            == 0
        )
        with np.load(ref) as a, np.load(out) as b:
            np.testing.assert_array_equal(a["vectors"], b["vectors"])


# ---------------------------------------------------------------------------
# Abnormal-exit shared-memory sweep (atexit guard)
# ---------------------------------------------------------------------------
class TestShmAtexitSweep:
    SCRIPT = """
import sys
from repro.parallel.shm import SharedArray

segment = SharedArray.create((64,), "float64")  # owner, never destroyed
print(segment.spec.name, flush=True)
sys.exit(1)  # abnormal exit outside any context manager
"""

    def test_owned_segment_unlinked_at_interpreter_exit(self):
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == 1
        name = proc.stdout.strip().splitlines()[-1].lstrip("/")
        assert name
        assert not os.path.exists(f"/dev/shm/{name}"), (
            f"segment {name} leaked past interpreter exit"
        )
