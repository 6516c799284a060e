"""Worker supervision: heartbeats, watchdog, respawn/degrade ladder.

The chaos-marked tests kill and hang real worker processes; they assert
the three liveness guarantees of a supervised ``parallel_map``: the map
always completes, results match the serial path, and nothing leaks in
/dev/shm.
"""

import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder, use
from repro.parallel.persistent import shutdown_pools
from repro.parallel.pool import parallel_map
from repro.parallel.shm import SHM_AVAILABLE
from repro.resilience.chaos import FaultInjector
from repro.resilience.supervisor import (
    NULL_HEARTBEAT,
    SupervisorConfig,
    current_heartbeat,
)

from tests.parallel.test_shm import shm_entries

pytestmark = pytest.mark.skipif(
    not SHM_AVAILABLE, reason="platform has no shared memory"
)

FAST = dict(worker_deadline=10.0, max_respawns=5, poll_interval=0.02)


def square(x):
    return x * x


def failing(x):
    if x == 3:
        raise ValueError("item 3 is poison")
    return x


@pytest.fixture()
def no_leaks():
    before = shm_entries()
    yield
    shutdown_pools()
    leaked = shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


@pytest.fixture()
def recording():
    registry = MetricsRegistry()
    with use(Recorder(registry)):
        yield registry


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = SupervisorConfig()
        assert cfg.worker_deadline == 30.0
        assert cfg.max_respawns == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"worker_deadline": 0},
            {"worker_deadline": -1.0},
            {"straggler_timeout": 0},
            {"max_respawns": -1},
            {"poll_interval": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)


class TestHappyPath:
    def test_matches_serial(self, no_leaks):
        items = list(range(23))
        out = parallel_map(
            square, items, workers=4, supervisor=SupervisorConfig(**FAST)
        )
        assert out == [square(x) for x in items]

    def test_serial_shortcuts(self):
        # workers=1 and single-item inputs never spawn processes.
        assert parallel_map(square, [5], workers=8) == [25]
        assert parallel_map(square, list(range(4)), workers=1) == [0, 1, 4, 9]
        assert parallel_map(square, [], workers=4) == []

    def test_more_workers_than_items(self, no_leaks):
        out = parallel_map(
            square, [1, 2], workers=8, supervisor=SupervisorConfig(**FAST)
        )
        assert out == [1, 4]

    def test_work_exception_propagates(self, no_leaks):
        with pytest.raises(ValueError, match="poison"):
            parallel_map(
                failing,
                list(range(6)),
                workers=3,
                supervisor=SupervisorConfig(**FAST),
            )


class TestHeartbeatAccessor:
    def test_null_outside_supervision(self):
        assert current_heartbeat() is NULL_HEARTBEAT
        current_heartbeat().beat()  # no-op, must not raise


@pytest.mark.chaos
class TestKilledWorker:
    def test_respawn_completes_the_map(self, tmp_path, no_leaks, recording):
        inj = FaultInjector(
            square,
            exit_on_calls={1},
            only_in_subprocess=True,
            once_marker=tmp_path / "fired",
        )
        out = parallel_map(
            inj, list(range(10)), workers=3, supervisor=SupervisorConfig(**FAST)
        )
        assert (tmp_path / "fired").exists(), "fault never fired"
        assert out == [x * x for x in range(10)]
        counters = recording.snapshot()["counters"]
        assert counters["supervisor.respawns"] >= 1
        assert counters["supervisor.items_reassigned"] >= 1


@pytest.mark.chaos
class TestHungWorker:
    def test_hang_is_detected_within_deadline(self, tmp_path, no_leaks, recording):
        inj = FaultInjector(
            square,
            hang_on_calls={1},
            hang_seconds=3600.0,  # would stall forever without supervision
            only_in_subprocess=True,
            once_marker=tmp_path / "fired",
        )
        config = SupervisorConfig(
            worker_deadline=1.0, max_respawns=5, poll_interval=0.05
        )
        start = time.monotonic()
        out = parallel_map(inj, list(range(10)), workers=3, supervisor=config)
        elapsed = time.monotonic() - start
        assert (tmp_path / "fired").exists(), "fault never fired"
        assert out == [x * x for x in range(10)]
        # Killed within a small multiple of the deadline, not after an hour.
        assert elapsed < 30.0
        assert recording.snapshot()["counters"]["supervisor.respawns"] >= 1


@pytest.mark.chaos
class TestDegradeLadder:
    def test_always_dying_workers_degrade_to_serial(self, no_leaks, recording):
        # Every subprocess call dies; only the in-process serial rung can
        # finish. No once_marker: the fault never disarms in workers.
        inj = FaultInjector(
            square,
            exit_on_calls=set(range(1, 100)),
            only_in_subprocess=True,
        )
        config = SupervisorConfig(
            worker_deadline=10.0, max_respawns=2, poll_interval=0.02
        )
        out = parallel_map(inj, list(range(6)), workers=4, supervisor=config)
        assert out == [x * x for x in range(6)]
        counters = recording.snapshot()["counters"]
        assert counters["supervisor.degrades"] >= 1
        assert counters["supervisor.serial_fallbacks"] == 1


@pytest.mark.chaos
class TestStraggler:
    def test_straggler_is_killed_and_reassigned(self, tmp_path, no_leaks, recording):
        # straggler_timeout (0.5s) undercuts worker_deadline (2s), so the
        # watchdog's straggler branch is what reaps the sleeping worker.
        inj = FaultInjector(
            square,
            hang_on_calls={1},
            hang_seconds=3600.0,
            only_in_subprocess=True,
            once_marker=tmp_path / "fired",
        )
        config = SupervisorConfig(
            worker_deadline=2.0,
            straggler_timeout=0.5,
            max_respawns=5,
            poll_interval=0.05,
        )
        out = parallel_map(inj, list(range(8)), workers=2, supervisor=config)
        assert out == [x * x for x in range(8)]
        assert recording.snapshot()["counters"]["supervisor.respawns"] >= 1
