"""Resource guard: budgets, preflight, watchdog, and the pressure path
through the shared worker pool's slot cap.

A degrade step caps the process-wide pool, so an autouse fixture shuts
the pool down after every test: an uncapped pool is the invariant state
the rest of the suite relies on.
"""

import io
import multiprocessing
import os
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.obs.logging import parse_jsonl
from repro.obs.manifest import load_manifest
from repro.obs.recorder import ObsConfig, Recorder, session, use
from repro.parallel.persistent import get_pool, shutdown_pools, slot_cap
from repro.parallel.pool import parallel_map
from repro.pipeline import ExecutionContext, Pipeline
from repro.pipeline.stage import PipelineStage
from repro.resilience import guard
from repro.resilience.guard import (
    DEGRADE_FRACTION,
    MIN_FREE_BYTES,
    BudgetExceeded,
    PressureWatchdog,
    ResourceBudget,
    effective_workers,
    estimate_footprint,
    format_size,
    parse_size,
    preflight,
)
from repro.resilience.lifecycle import CancellationToken, RunInterrupted, cancel_scope
from repro.walks.corpus import WALK_DTYPE

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="pool requires fork")


@pytest.fixture(autouse=True)
def uncapped_pool():
    yield
    shutdown_pools()


#: Memory budget of the soft-pressure tests; ``soft_rss`` pins every
#: sample's RSS between the degrade threshold and the budget.
SOFT_BUDGET = 1 << 30


@pytest.fixture()
def soft_rss(monkeypatch):
    rss = int(SOFT_BUDGET * (DEGRADE_FRACTION + 1.0) / 2)
    monkeypatch.setattr(guard, "_rss_bytes", lambda: rss)


def _pid(_):
    return os.getpid()


def _children() -> set:
    return {child.pid for child in multiprocessing.active_children()}


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


class _FakeSerialTrainConfig(_FakeTrainConfig):
    workers = 1


class _Stage:
    def __init__(self, name, config):
        self.name = name
        self.config = config


WALK_STAGE = _Stage("walk", _FakeWalkConfig())
TRAIN_STAGE = _Stage("train", _FakeTrainConfig())
SERIAL_TRAIN_STAGE = _Stage("train", _FakeSerialTrainConfig())


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
        fp = estimate_footprint([WALK_STAGE, SERIAL_TRAIN_STAGE], _FakeGraph())
        assert fp.shm_bytes == 0
        assert "hogwild_shm" not in fp.breakdown

    def test_pooled_walks_charge_only_the_walk_matrix(self):
        # Two walk workers and a serial trainer: /dev/shm holds the walk
        # matrix, never the trainer's slabs.
        fp = estimate_footprint(
            [WALK_STAGE, SERIAL_TRAIN_STAGE], _FakeGraph(), workers=2
        )
        walk_matrix = 1000 * 10 * 80 * WALK_DTYPE.itemsize
        assert fp.shm_bytes == fp.breakdown["walk_shm"] == walk_matrix
        assert "hogwild_shm" not in fp.breakdown

    def test_serial_walks_charge_only_the_hogwild_slabs(self):
        fp = estimate_footprint(STAGES, _FakeGraph(), workers=1)
        assert fp.shm_bytes == fp.breakdown["hogwild_shm"]
        assert "walk_shm" not in fp.breakdown

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
#: Pooled walks and a serial trainer: one worker drops all of /dev/shm.
DEGRADABLE = [WALK_STAGE, SERIAL_TRAIN_STAGE]


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
        # Two walk workers put the walk matrix in /dev/shm; the full
        # footprint overruns the budget, one worker fits — preflight
        # shrinks the run instead of refusing it.
        fp = estimate_footprint(DEGRADABLE, _FakeGraph(), workers=4)
        budget = fp.rss_bytes - fp.shm_bytes // 2
        assert fp.rss_bytes > budget > fp.rss_bytes - fp.shm_bytes
        degraded = preflight(_ctx(memory_bytes=budget), DEGRADABLE, _FakeGraph())
        assert degraded.workers == 1
        one = estimate_footprint(DEGRADABLE, _FakeGraph(), workers=1)
        assert one.rss_bytes <= budget

    def test_hogwild_slabs_stay_charged_after_degrading(self):
        # The context's workers do not size the Hogwild slabs — the
        # trainer's own workers do. A budget that only the slab-free
        # footprint fits must be refused, not degraded into an overrun.
        from repro.core.trainer import TrainConfig
        from repro.walks.engine import RandomWalkConfig

        class Graph:
            n = 20_000
            num_edges = 100_000

        stages = [
            _Stage("walk", RandomWalkConfig(walks_per_vertex=10, walk_length=40)),
            _Stage("train", TrainConfig(dim=50, workers=2)),
        ]
        fp = estimate_footprint(stages, Graph(), workers=2)
        budget = fp.rss_bytes - fp.shm_bytes
        assert estimate_footprint(stages, Graph(), workers=1).rss_bytes > budget
        with pytest.raises(BudgetExceeded) as err:
            preflight(_ctx(workers=2, memory_bytes=budget), stages, Graph())
        assert err.value.needed == fp.rss_bytes

    def test_strict_budget_raises_instead_of_degrading(self):
        fp = estimate_footprint(DEGRADABLE, _FakeGraph(), workers=4)
        budget = fp.rss_bytes - fp.shm_bytes // 2
        with pytest.raises(BudgetExceeded) as err:
            preflight(
                _ctx(memory_bytes=budget, auto_degrade=False),
                DEGRADABLE,
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
        fp = estimate_footprint(DEGRADABLE, _FakeGraph(), workers=4)
        budget = fp.rss_bytes - fp.shm_bytes // 2
        with use(Recorder()) as rec:
            preflight(_ctx(memory_bytes=budget), DEGRADABLE, _FakeGraph())
            assert rec.registry.snapshot()["counters"]["guard.degradations"] == 1

    def test_degradation_is_logged_once(self, tmp_path):
        fp = estimate_footprint(DEGRADABLE, _FakeGraph(), workers=4)
        budget = fp.rss_bytes - fp.shm_bytes // 2
        events = _session_events(
            tmp_path,
            lambda: preflight(
                _ctx(memory_bytes=budget), DEGRADABLE, _FakeGraph()
            ),
        )
        degradations = [
            e for e in events
            if e["event"] in ("guard.degraded", "guard.preflight_degrade")
        ]
        (degraded,) = degradations
        assert degraded["event"] == "guard.degraded"
        assert degraded["action"] == "preflight_workers_to_1"
        assert degraded["workers_before"] == 4


def _soft_dog(**kwargs) -> PressureWatchdog:
    return PressureWatchdog(
        ResourceBudget(memory_bytes=SOFT_BUDGET), cooldown=0.0, **kwargs
    )


@needs_fork
class TestLadder:
    """Soft pressure halves the shared pool's slots, then cancels."""

    def test_level_zero_is_transparent(self):
        assert slot_cap() is None
        assert effective_workers(4) == 4

    def test_two_slots_then_in_process_then_cancel(self, soft_rss):
        token = CancellationToken()
        dog = _soft_dog(cancel=lambda: token.cancel("resource_pressure"))
        with use(Recorder()) as rec, cancel_scope(token):
            wide = set(parallel_map(_pid, list(range(8)), workers=2))
            assert len(wide) == 2 and os.getpid() not in wide
            first = dog.poll_once()
            assert (first["action"], first["slot_cap"]) == ("halve_slots", 1)
            # The idle workers stopped with the step, not at the next map.
            assert _children().isdisjoint(wide)
            assert effective_workers(2) == 1
            assert parallel_map(_pid, list(range(8)), workers=2) == [
                os.getpid()
            ] * 8
            assert not token.cancelled
            second = dog.poll_once()
            assert second["action"] == "cancel"
            with pytest.raises(RunInterrupted) as err:
                parallel_map(_pid, list(range(8)), workers=2)
        assert err.value.reason == "resource_pressure"
        snapshot = rec.registry.snapshot()
        assert snapshot["counters"]["guard.breaches"] == 2
        assert snapshot["counters"]["guard.degradations"] == 2
        assert snapshot["gauges"]["guard.slot_cap"] == 1
        assert _children().isdisjoint(wide)

    def test_worker_rung_halves_map_concurrency(self, soft_rss):
        # Each step halves from the latest map's slot count.
        parallel_map(_pid, list(range(8)), workers=4)
        dog = _soft_dog()
        with use(Recorder()):
            assert dog.poll_once()["slot_cap"] == 2
            assert effective_workers(4) == 2
            assert effective_workers(1) == 1
            assert dog.poll_once()["slot_cap"] == 1
            assert effective_workers(4) == 1

    def test_hogwild_epoch_at_cap_one_forks_nothing(self, tmp_path):
        from repro.core.trainer import TrainConfig, train_embeddings
        from repro.graph.generators import planted_partition
        from repro.parallel.hogwild import hogwild_supported
        from repro.walks.engine import RandomWalkConfig, generate_walks

        if not hogwild_supported():
            pytest.skip("Hogwild needs shared memory")
        g = planted_partition(n=60, groups=3, alpha=0.3, inter_edges=10, seed=0)
        corpus = generate_walks(
            g, RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=0)
        )
        pool = get_pool()
        while pool.degrade():
            pass
        assert slot_cap() == 1
        before = _children()
        config = TrainConfig(dim=8, epochs=1, workers=2, seed=0)
        events = _session_events(
            tmp_path, lambda: train_embeddings(corpus, config)
        )
        rows = [e for e in events if e["event"] == "hogwild.worker"]
        # Task structure still follows config.workers: two shards.
        assert sorted(row["worker"] for row in rows) == [0, 1]
        assert _children() <= before
        assert all(worker is None for worker in pool._workers)

    def test_cancel_rung_invokes_the_hook(self, soft_rss):
        fired = []
        while get_pool().degrade():
            pass
        dog = _soft_dog(cancel=lambda: fired.append(True))
        with use(Recorder()):
            assert dog.poll_once()["action"] == "cancel"
        assert fired == [True]

    def test_one_escalation_logs_one_degraded_event(self, tmp_path, soft_rss):
        from repro.parallel.pool import default_workers

        events = _session_events(tmp_path, lambda: _soft_dog().poll_once())
        (degraded,) = [e for e in events if e["event"] == "guard.degraded"]
        assert degraded["action"] == "halve_slots"
        # A pool that ran no map halves its default width.
        assert degraded["slot_cap"] == max(default_workers() // 2, 1)
        assert "85%" in degraded["reason"]

    def test_escalation_never_goes_backwards(self, soft_rss):
        parallel_map(_pid, list(range(8)), workers=4)
        with use(Recorder()):
            _soft_dog().poll_once()
        # A wide map runs under the cap and leaves it where it was.
        assert len(set(parallel_map(_pid, list(range(8)), workers=4))) == 2
        assert slot_cap() == 2
        assert effective_workers(8) == 2

    def test_escalation_clamps_at_cancel(self, soft_rss):
        fired = []
        dog = _soft_dog(cancel=lambda: fired.append(True))
        with use(Recorder()):
            actions = [dog.poll_once().get("action") for _ in range(10)]
        # Halvings down to one slot, one cancel, then nothing more.
        halvings = actions.index("cancel")
        assert set(actions[:halvings]) == {"halve_slots"}
        assert actions[halvings + 1 :] == [None] * (9 - halvings)
        assert fired == [True]

    def test_reset_returns_to_healthy(self, soft_rss):
        dog = _soft_dog()
        with use(Recorder()) as rec:
            dog.poll_once()
            assert slot_cap() is not None
            dog.stop()
            assert slot_cap() is None
            pids = set(parallel_map(_pid, list(range(8)), workers=2))
        assert len(pids) == 2 and os.getpid() not in pids
        assert rec.registry.snapshot()["gauges"]["supervisor.workers"] == 2


class TestWatchdog:
    def test_sample_reads_real_process_state(self, tmp_path):
        dog = PressureWatchdog(
            ResourceBudget(memory_bytes=1), checkpoint_dir=tmp_path
        )
        record = dog.sample()
        assert record["slot_cap"] is None
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
        # which must skip the pool's halving and cancel outright.
        fired = []
        dog = PressureWatchdog(
            ResourceBudget(memory_bytes=1), cancel=lambda: fired.append(True)
        )
        with use(Recorder()) as rec:
            record = dog.poll_once()
        assert record["breach"]
        assert record["action"] == "cancel"
        assert fired == [True]
        assert slot_cap() is None
        counters = rec.registry.snapshot()["counters"]
        assert counters["guard.breaches"] == 1
        assert counters["guard.degradations"] == 1
        assert rec.pressure_records == [record]

    def test_cooldown_batches_escalations(self, soft_rss):
        dog = PressureWatchdog(
            ResourceBudget(memory_bytes=SOFT_BUDGET), cooldown=3600.0
        )
        with use(Recorder()):
            first = dog.poll_once()
            second = dog.poll_once()
        assert first["action"] == "halve_slots"
        assert second["breach"] and "action" not in second

    def test_first_breach_steps_just_after_boot(self, monkeypatch, soft_rss):
        # ``time.monotonic()`` counts from boot on Linux; a clock reading
        # less than the cooldown must not hold back the first step.
        monkeypatch.setattr(guard, "time", SimpleNamespace(monotonic=lambda: 1.0))
        dog = PressureWatchdog(
            ResourceBudget(memory_bytes=SOFT_BUDGET), cooldown=3600.0
        )
        with use(Recorder()):
            first = dog.poll_once()
            second = dog.poll_once()
        assert first["action"] == "halve_slots"
        assert second["breach"] and "action" not in second

        fired = []
        dog = PressureWatchdog(
            ResourceBudget(memory_bytes=1), cancel=lambda: fired.append(True)
        )
        with use(Recorder()):
            record = dog.poll_once()
        assert record["action"] == "cancel"
        assert fired == [True]

    def test_healthy_budget_records_without_escalating(self):
        dog = PressureWatchdog(ResourceBudget(memory_bytes=64 * 1024**4))
        with use(Recorder()) as rec:
            record = dog.poll_once()
        assert "breach" not in record and "action" not in record
        assert slot_cap() is None
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
            # Stop detaches the cancel hook: a stale poll must not be
            # able to cancel a later run.
            dog.budget = ResourceBudget(memory_bytes=1)
            assert dog.poll_once()["action"] == "cancel"
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


class _PressuredStage(PipelineStage):
    """Maps on two slots, then polls the run's watchdog, a few times over."""

    name = "pressured"

    def __init__(self, dogs: list) -> None:
        self.dogs = dogs
        self.pids: list[list[int]] = []

    def run(self, ctx, value):
        for _ in range(3):
            self.pids.append(parallel_map(_pid, list(range(4)), workers=2))
            self.dogs[-1].poll_once()
        return value


class TestPipelineIntegration:
    @needs_fork
    def test_soft_pressure_cancels_once_maps_run_in_process(
        self, tmp_path, monkeypatch, soft_rss
    ):
        dogs: list = []

        def watchdog(budget, **kwargs):
            dogs.append(PressureWatchdog(budget, cooldown=0.0, **kwargs))
            return dogs[-1]

        # The stage polls; the watchdog's own thread never does.
        monkeypatch.setattr("repro.pipeline.runner.PressureWatchdog", watchdog)
        stage = _PressuredStage(dogs)
        ctx = ExecutionContext(
            cancellation=CancellationToken(),
            budget=ResourceBudget(memory_bytes=SOFT_BUDGET, interval=3600.0),
        )
        manifest_path = tmp_path / "manifest.json"
        cfg = ObsConfig(log_level="error", metrics_out=str(manifest_path))
        with pytest.raises(RunInterrupted):
            with session(cfg, run_config={}, stream=io.StringIO()):
                Pipeline([stage]).execute(None, ctx)
        manifest = load_manifest(manifest_path)
        assert manifest["status"] == "interrupted"
        assert manifest["interrupt_reason"] == "resource_pressure"
        pressure = manifest["pressure"]
        assert [r["action"] for r in pressure] == ["halve_slots", "cancel"]
        assert [r["slot_cap"] for r in pressure] == [1, 1]
        pooled, in_process = stage.pids
        assert os.getpid() not in pooled
        assert in_process == [os.getpid()] * 4
        assert slot_cap() is None, "the run's end must lift the cap"

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
