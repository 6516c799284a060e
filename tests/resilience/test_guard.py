"""Resource guard: budgets, preflight, degradation ladder, watchdog.

Everything here runs against the process-wide ladder singleton, so an
autouse fixture resets it around every test — level 0 is the invariant
state the rest of the suite relies on.
"""

import io
import time
import tracemalloc

import pytest

from repro.obs.logging import parse_jsonl
from repro.obs.manifest import load_manifest
from repro.obs.recorder import ObsConfig, Recorder, session, use
from repro.pipeline import ExecutionContext, Pipeline
from repro.pipeline.stage import PipelineStage
from repro.resilience.guard import (
    DEGRADE_FRACTION,
    LEVEL_CANCEL,
    LEVEL_POOL,
    LEVEL_WAVE,
    LEVEL_WORKERS,
    MIN_FREE_BYTES,
    BudgetExceeded,
    PressureWatchdog,
    ResourceBudget,
    clamp_wave,
    effective_workers,
    estimate_footprint,
    format_size,
    guard_state,
    parse_size,
    pool_allowed,
    preflight,
    reset_guard,
)
from repro.walks.corpus import WALK_DTYPE


@pytest.fixture(autouse=True)
def clean_ladder():
    reset_guard()
    yield
    reset_guard()


class TestParseSize:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2G", 2 * 1024**3),
            ("512M", 512 * 1024**2),
            ("1048576", 1048576),
            ("1.5K", 1536),
            ("2GiB", 2 * 1024**3),
            ("2gb", 2 * 1024**3),
            ("3T", 3 * 1024**4),
            (" 16 M ", 16 * 1024**2),
        ],
    )
    def test_accepts_human_sizes(self, text, expected):
        assert parse_size(text) == expected

    def test_accepts_raw_numbers(self):
        assert parse_size(4096) == 4096
        assert parse_size(1.5) == 1

    @pytest.mark.parametrize("bad", ["abc", "-5M", "", "M", "1Q"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parse_size(0)
        with pytest.raises(ValueError):
            parse_size("0")

    def test_format_round_trip_is_readable(self):
        assert format_size(2 * 1024**3) == "2.0G"
        assert format_size(1536) == "1.5K"


class TestResourceBudget:
    def test_unarmed_by_default(self):
        assert not ResourceBudget().armed

    def test_armed_when_any_limit_set(self):
        assert ResourceBudget(memory_bytes=1).armed
        assert ResourceBudget(disk_bytes=1).armed

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"memory_bytes": 0},
            {"memory_bytes": -1},
            {"disk_bytes": 0},
            {"interval": 0.0},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            ResourceBudget(**kwargs)


class _FakeGraph:
    n = 1000
    num_edges = 5000


class _FakeWalkConfig:
    walks_per_vertex = 10
    walk_length = 80


class _FakeTrainConfig:
    dim = 50
    window = 5
    workers = 4


class _Stage:
    def __init__(self, name, config):
        self.name = name
        self.config = config


WALK_STAGE = _Stage("walk", _FakeWalkConfig())
TRAIN_STAGE = _Stage("train", _FakeTrainConfig())


class TestEstimateFootprint:
    def test_graph_term_scales_with_csr_size(self):
        fp = estimate_footprint([], _FakeGraph())
        assert fp.breakdown["graph"] == (1000 + 2 * 5000) * 8
        assert fp.rss_bytes == fp.breakdown["graph"]
        assert fp.shm_bytes == 0

    def test_walk_stage_adds_corpus_and_disk(self):
        fp = estimate_footprint([WALK_STAGE], _FakeGraph())
        tokens = 1000 * 10 * 80
        token_bytes = WALK_DTYPE.itemsize  # int32 tokens
        assert token_bytes == 4
        assert fp.breakdown["walk_corpus"] == tokens * token_bytes * 2
        # The chunk checkpoints plus one in-flight tmp file.
        assert fp.disk_bytes == tokens * token_bytes + tokens * token_bytes // 4

    def test_multi_worker_training_needs_shm(self):
        fp = estimate_footprint([WALK_STAGE, TRAIN_STAGE], _FakeGraph())
        assert fp.shm_bytes > 0
        assert fp.breakdown["hogwild_shm"] == (
            fp.breakdown["train_weights"] + fp.breakdown["train_examples"]
        )

    def test_single_worker_training_needs_no_shm(self):
        class SerialTrain(_FakeTrainConfig):
            workers = 1

        fp = estimate_footprint(
            [WALK_STAGE, _Stage("train", SerialTrain())], _FakeGraph()
        )
        assert fp.shm_bytes == 0
        assert "hogwild_shm" not in fp.breakdown

    def test_as_dict_is_json_shaped(self):
        d = estimate_footprint([WALK_STAGE], _FakeGraph()).as_dict()
        assert set(d) == {"rss_bytes", "shm_bytes", "disk_bytes", "breakdown"}

    def test_training_terms_cover_a_traced_run(self):
        # The trainer's heap peak, weights and examples together, stays
        # under what preflight charges for them.
        from repro.core.trainer import TrainConfig, train_embeddings
        from repro.graph.generators import planted_partition
        from repro.pipeline import TrainStage, WalkStage
        from repro.walks.engine import RandomWalkConfig, generate_walks

        g = planted_partition(n=300, groups=6, alpha=0.2, inter_edges=60, seed=0)
        walk_cfg = RandomWalkConfig(walks_per_vertex=10, walk_length=40, seed=0)
        train_cfg = TrainConfig(dim=16, epochs=1, seed=0)
        fp = estimate_footprint(
            [WalkStage(walk_cfg), TrainStage(train_cfg)], g
        )
        corpus = generate_walks(g, walk_cfg)
        tracemalloc.start()
        try:
            train_embeddings(corpus, train_cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        charged = fp.breakdown["train_weights"] + fp.breakdown["train_examples"]
        assert peak <= charged, f"peak {peak} B over the {charged} B charged"


def _ctx(workers=4, **budget_kwargs):
    return ExecutionContext(
        workers=workers, budget=ResourceBudget(**budget_kwargs)
    )


STAGES = [WALK_STAGE, TRAIN_STAGE]


def _session_events(tmp_path, action) -> list[dict]:
    """The JSONL events of one observed session that runs ``action``."""
    path = tmp_path / "events.jsonl"
    cfg = ObsConfig(log_level="error", log_json=str(path))
    with session(cfg, stream=io.StringIO()):
        action()
    return parse_jsonl(path)


class TestPreflight:
    def test_no_budget_is_a_passthrough(self):
        ctx = ExecutionContext(workers=4)
        assert preflight(ctx, STAGES, _FakeGraph()) is ctx

    def test_unarmed_budget_is_a_passthrough(self):
        ctx = ExecutionContext(workers=4, budget=ResourceBudget())
        assert preflight(ctx, STAGES, _FakeGraph()) is ctx

    def test_roomy_budget_passes_unchanged(self):
        ctx = _ctx(memory_bytes=64 * 1024**3)
        assert preflight(ctx, STAGES, _FakeGraph()) is ctx

    def test_tight_memory_degrades_workers_to_one(self):
        # The full footprint (~155M with shm slabs) overruns 100M, but
        # dropping the Hogwild slabs fits — preflight shrinks the run
        # instead of refusing it.
        fp = estimate_footprint(STAGES, _FakeGraph(), workers=4)
        budget = fp.rss_bytes - fp.shm_bytes // 2
        assert fp.rss_bytes > budget > fp.rss_bytes - fp.shm_bytes
        degraded = preflight(_ctx(memory_bytes=budget), STAGES, _FakeGraph())
        assert degraded.workers == 1

    def test_strict_budget_raises_instead_of_degrading(self):
        fp = estimate_footprint(STAGES, _FakeGraph(), workers=4)
        budget = fp.rss_bytes - fp.shm_bytes // 2
        with pytest.raises(BudgetExceeded) as err:
            preflight(
                _ctx(memory_bytes=budget, auto_degrade=False),
                STAGES,
                _FakeGraph(),
            )
        assert err.value.resource == "memory"
        assert err.value.needed == fp.rss_bytes

    def test_hopeless_memory_budget_raises_even_with_degrade(self):
        with pytest.raises(BudgetExceeded):
            preflight(_ctx(memory_bytes=1024), STAGES, _FakeGraph())

    def test_disk_budget_overrun_raises(self):
        with pytest.raises(BudgetExceeded) as err:
            preflight(_ctx(disk_bytes=1024), STAGES, _FakeGraph())
        assert err.value.resource == "disk"

    def test_degradation_is_counted(self):
        fp = estimate_footprint(STAGES, _FakeGraph(), workers=4)
        budget = fp.rss_bytes - fp.shm_bytes // 2
        with use(Recorder()) as rec:
            preflight(_ctx(memory_bytes=budget), STAGES, _FakeGraph())
            assert rec.registry.snapshot()["counters"]["guard.degradations"] == 1

    def test_degradation_is_logged_once(self, tmp_path):
        fp = estimate_footprint(STAGES, _FakeGraph(), workers=4)
        budget = fp.rss_bytes - fp.shm_bytes // 2
        events = _session_events(
            tmp_path,
            lambda: preflight(_ctx(memory_bytes=budget), STAGES, _FakeGraph()),
        )
        degradations = [
            e for e in events
            if e["event"] in ("guard.degraded", "guard.preflight_degrade")
        ]
        (degraded,) = degradations
        assert degraded["event"] == "guard.degraded"
        assert degraded["action"] == "preflight_workers_to_1"
        assert degraded["workers_before"] == 4


class TestLadder:
    def test_level_zero_is_transparent(self):
        assert clamp_wave(8) == 8
        assert pool_allowed()
        assert effective_workers(4) == 4

    def test_wave_rung_serializes_chunk_scheduling(self):
        guard_state().escalate("test")
        assert guard_state().level == LEVEL_WAVE
        assert clamp_wave(8) == 1
        # Pool and workers untouched at this rung.
        assert pool_allowed()
        assert effective_workers(4) == 4

    def test_pool_rung_disables_persistent_pool(self):
        guard_state().escalate("test", to_level=LEVEL_POOL)
        assert not pool_allowed()

    def test_worker_rung_halves_map_concurrency(self):
        guard_state().escalate("test", to_level=LEVEL_WORKERS)
        assert effective_workers(4) == 2
        assert effective_workers(2) == 1
        # Serial maps cannot be halved further.
        assert effective_workers(1) == 1

    def test_cancel_rung_invokes_the_hook(self):
        fired = []
        guard_state().reset(on_cancel=lambda: fired.append(True))
        guard_state().escalate("test", to_level=LEVEL_CANCEL)
        assert fired == [True]

    def test_one_escalation_logs_one_degraded_event(self, tmp_path):
        events = _session_events(tmp_path, lambda: guard_state().escalate("test"))
        (degraded,) = [e for e in events if e["event"] == "guard.degraded"]
        assert degraded["rung"] == LEVEL_WAVE
        assert degraded["reason"] == "test"

    def test_escalation_never_goes_backwards(self):
        guard_state().escalate("test", to_level=LEVEL_WORKERS)
        guard_state().escalate("test", to_level=LEVEL_WAVE)
        assert guard_state().level == LEVEL_WORKERS

    def test_escalation_clamps_at_cancel(self):
        for _ in range(10):
            guard_state().escalate("test")
        assert guard_state().level == LEVEL_CANCEL

    def test_reset_returns_to_healthy(self):
        guard_state().escalate("test", to_level=LEVEL_CANCEL)
        reset_guard()
        assert guard_state().level == 0
        assert clamp_wave(8) == 8


class TestWatchdog:
    def test_sample_reads_real_process_state(self, tmp_path):
        dog = PressureWatchdog(
            ResourceBudget(memory_bytes=1), checkpoint_dir=tmp_path
        )
        record = dog.sample()
        assert record["level"] == 0
        assert record["rss_bytes"] > 0
        assert record["shm_free_bytes"] > 0
        assert record["disk_free_bytes"] > 0
        assert dog.samples == 1

    def test_evaluate_flags_hard_and_soft_rss(self):
        dog = PressureWatchdog(ResourceBudget(memory_bytes=100))
        assert "budget" in dog.evaluate(
            {"rss_bytes": 100, "shm_free_bytes": 2 * MIN_FREE_BYTES}
        )
        soft = int(100 * DEGRADE_FRACTION) + 1
        assert "85%" in dog.evaluate(
            {"rss_bytes": soft, "shm_free_bytes": 2 * MIN_FREE_BYTES}
        )
        assert (
            dog.evaluate(
                {"rss_bytes": 10, "shm_free_bytes": 2 * MIN_FREE_BYTES}
            )
            is None
        )

    def test_evaluate_flags_low_shm_and_disk(self):
        dog = PressureWatchdog(ResourceBudget(disk_bytes=1))
        assert "/dev/shm" in dog.evaluate(
            {"shm_free_bytes": MIN_FREE_BYTES - 1}
        )
        assert "disk free" in dog.evaluate(
            {
                "shm_free_bytes": 2 * MIN_FREE_BYTES,
                "disk_free_bytes": MIN_FREE_BYTES - 1,
            }
        )

    def test_hard_rss_overrun_jumps_to_cancel(self):
        # A 1-byte memory budget: the very first sample is a hard breach,
        # which must skip the gentle rungs and cancel outright.
        fired = []
        dog = PressureWatchdog(
            ResourceBudget(memory_bytes=1), cancel=lambda: fired.append(True)
        )
        guard_state().reset(on_cancel=dog._cancel)
        with use(Recorder()) as rec:
            record = dog.poll_once()
        assert record["breach"]
        assert record["level"] == LEVEL_CANCEL
        assert fired == [True]
        counters = rec.registry.snapshot()["counters"]
        assert counters["guard.breaches"] == 1
        assert counters["guard.degradations"] == 1
        assert rec.pressure_records == [record]

    def test_cooldown_batches_escalations(self):
        dog = PressureWatchdog(
            ResourceBudget(memory_bytes=1), cooldown=3600.0
        )
        guard_state().reset(on_cancel=None)
        with use(Recorder()):
            dog.poll_once()
            level_after_first = guard_state().level
            dog.poll_once()
        assert guard_state().level == level_after_first

    def test_healthy_budget_records_without_escalating(self):
        dog = PressureWatchdog(ResourceBudget(memory_bytes=64 * 1024**4))
        with use(Recorder()) as rec:
            record = dog.poll_once()
        assert "breach" not in record
        assert guard_state().level == 0
        assert rec.pressure_records == [record]

    def test_thread_lifecycle_samples_and_detaches(self):
        fired = []
        dog = PressureWatchdog(
            ResourceBudget(memory_bytes=64 * 1024**4, interval=0.01),
            cancel=lambda: fired.append(True),
        )
        with use(Recorder()):
            with dog:
                deadline = time.monotonic() + 2.0
                while dog.samples == 0 and time.monotonic() < deadline:
                    time.sleep(0.01)
        assert dog.samples > 0
        assert dog._thread is None
        # Stop detaches the cancel hook: a stale escalation must not be
        # able to cancel a later run.
        guard_state().escalate("after-stop", to_level=LEVEL_CANCEL)
        assert fired == []


class _WaitStage(PipelineStage):
    name = "wait"

    def run(self, ctx, value):
        time.sleep(0.3)
        return value


class _NoopStage(PipelineStage):
    name = "noop"

    def run(self, ctx, value):
        return value


class _NeverStage(PipelineStage):
    name = "never"

    ran: list = []

    def run(self, ctx, value):
        self.ran.append(1)
        return value


class TestPipelineIntegration:
    def test_guarded_run_lands_pressure_timeline_in_manifest(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        pipeline = Pipeline([_WaitStage()])
        ctx = ExecutionContext(
            budget=ResourceBudget(memory_bytes=64 * 1024**4, interval=0.02)
        )
        cfg = ObsConfig(log_level="error", metrics_out=str(manifest_path))
        import io

        with session(cfg, run_config={}, stream=io.StringIO()):
            pipeline.execute(None, ctx)
        manifest = load_manifest(manifest_path)
        assert manifest["pressure"], "watchdog samples missing from manifest"
        sample = manifest["pressure"][0]
        assert sample["rss_bytes"] > 0
        assert "guard.rss_bytes" in manifest["metrics"]["gauges"]

    def test_unbudgeted_run_keeps_pressure_empty(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        pipeline = Pipeline([_NoopStage()])
        cfg = ObsConfig(log_level="error", metrics_out=str(manifest_path))
        import io

        with session(cfg, run_config={}, stream=io.StringIO()):
            pipeline.execute(1, ExecutionContext())
        assert load_manifest(manifest_path)["pressure"] == []

    def test_preflight_rejection_happens_before_any_stage(self):
        stage = _NeverStage()
        stage.ran = []
        pipeline = Pipeline([stage])
        ctx = ExecutionContext(
            workers=4, budget=ResourceBudget(memory_bytes=1024)
        )
        with pytest.raises(BudgetExceeded):
            pipeline.execute(_FakeGraph(), ctx)
        assert stage.ran == []
