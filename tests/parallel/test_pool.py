"""Tests for chunking and parallel map: the process-wide worker pool,
its supervision and degrade ladder, and its lifecycle."""

import multiprocessing
import os
import random
import threading
import time
import warnings

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder, use
from repro.parallel.persistent import PersistentPool, get_pool, shutdown_pools
from repro.parallel.pool import (
    chunk_bounds,
    default_workers,
    parallel_map,
    resolve_workers,
)
from repro.resilience.chaos import FaultInjector, InjectedFault
from repro.resilience.guard import LEVEL_POOL, guard_state, reset_guard
from repro.resilience.lifecycle import CancellationToken, RunInterrupted, cancel_scope
from repro.resilience.supervisor import SupervisorConfig

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="pool requires fork")


def square(x):
    return x * x


def _double(x):
    return 2 * x


def _pid(_):
    return os.getpid()


def _raise_if_marked(item):
    value, bad = item
    if value in bad:
        raise ValueError(f"item {value} rejected")
    return value


def _exit_unless_marker(item):
    """Hard-exit (like an OOM kill) once; the marker makes retries pass."""
    value, marker = item
    if value == "die" and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return value


def _sleep_then_double(x):
    time.sleep(0.005)
    return 2 * x


def _sleep_long(x):
    time.sleep(0.05 if x else 60.0)  # item 0 outlives any cancel grace
    return x


def _pool_children() -> set:
    return {child.pid for child in multiprocessing.active_children()}


@pytest.fixture()
def pool():
    p = PersistentPool()
    yield p
    p.shutdown()


@pytest.fixture()
def recording():
    registry = MetricsRegistry()
    with use(Recorder(registry)):
        yield registry


def _map(pool, fn, items, workers=2):
    return pool.map(fn, items, workers=workers, config=SupervisorConfig())


class TestChunkBounds:
    def test_even_split(self):
        assert chunk_bounds(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split(self):
        bounds = chunk_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_more_chunks_than_items(self):
        bounds = chunk_bounds(2, 5)
        assert bounds == [(0, 1), (1, 2)]

    def test_zero_total(self):
        assert chunk_bounds(0, 3) == []

    def test_covers_range_exactly(self):
        for total, chunks in [(17, 4), (100, 7), (3, 3)]:
            bounds = chunk_bounds(total, chunks)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == total
            for (a, b), (c, d) in zip(bounds, bounds[1:]):
                assert b == c

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 2)
        with pytest.raises(ValueError):
            chunk_bounds(5, 0)


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_parallel_path(self):
        out = parallel_map(square, list(range(8)), workers=2)
        assert out == [x * x for x in range(8)]

    def test_single_item_stays_serial(self):
        assert parallel_map(square, [5], workers=4) == [25]

    def test_order_preserved(self):
        out = parallel_map(square, list(range(20)), workers=3)
        assert out == [x * x for x in range(20)]

    def test_exception_propagates(self):
        def boom(x):
            raise RuntimeError("no")

        with pytest.raises(RuntimeError):
            parallel_map(boom, [1, 2], workers=1)


class TestWorkerCrashRecovery:
    """Regression: a worker dying mid-map used to raise
    ``BrokenProcessPool`` and lose every completed chunk."""

    def test_killed_worker_is_retried_and_results_stay_ordered(self, tmp_path):
        # Item 3 hard-kills its worker (os._exit — same as OOM/SIGKILL)
        # exactly once; the retry pass must recompute only what's missing
        # and return complete, ordered results.
        chaotic = FaultInjector(
            square, exit_items=(3,), once_marker=tmp_path / "fired"
        )
        out = parallel_map(chaotic, list(range(8)), workers=2)
        assert out == [x * x for x in range(8)]
        assert (tmp_path / "fired").exists()  # the fault really fired

    def test_persistently_broken_pool_degrades_to_serial(self, recording):
        # Every worker process dies on its first call; once the respawn
        # budget runs out on every rung the map must finish in-process
        # instead of crashing.
        chaotic = FaultInjector(
            square, exit_on_calls=range(1, 1000), only_in_subprocess=True
        )
        fast = SupervisorConfig(max_respawns=1, poll_interval=0.01)
        out = parallel_map(chaotic, list(range(6)), workers=2, supervisor=fast)
        assert out == [x * x for x in range(6)]
        assert recording.snapshot()["counters"]["supervisor.serial_fallbacks"] == 1

    def test_work_function_exception_still_propagates(self, tmp_path):
        chaotic = FaultInjector(square, fail_items=(2,))
        with pytest.raises(InjectedFault):
            parallel_map(chaotic, list(range(5)), workers=2)

    def test_no_warning_on_healthy_pool(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = parallel_map(square, list(range(8)), workers=2)
        assert out == [x * x for x in range(8)]


@needs_fork
class TestMap:
    def test_results_in_input_order(self, pool):
        items = list(range(20))
        assert _map(pool, _double, items) == [2 * x for x in items]

    def test_reuses_the_same_processes_across_maps(self, pool):
        first = set(_map(pool, _pid, range(8)))
        second = set(_map(pool, _pid, range(8)))
        assert first == second
        assert os.getpid() not in first
        assert len(first) <= 2

    def test_smallest_index_exception_wins(self, pool):
        items = [(i, (3, 7)) for i in range(10)]
        with pytest.raises(ValueError, match="item 3 rejected"):
            _map(pool, _raise_if_marked, items)

    def test_map_survives_a_raised_map(self, pool):
        with pytest.raises(ValueError):
            _map(pool, _raise_if_marked, [(i, (0,)) for i in range(4)])
        assert _map(pool, _double, [1, 2, 3]) == [2, 4, 6]


@needs_fork
class TestWorkerDeath:
    def test_killed_worker_is_respawned_and_item_retried(self, pool, tmp_path):
        marker = str(tmp_path / "fired")
        items = [(x, marker) for x in [0, 1, "die", 2, 3]]
        got = _map(pool, _exit_unless_marker, items)
        assert got == [0, 1, "die", 2, 3]
        assert os.path.exists(marker), "fault never fired"
        # The pool is healthy again afterwards.
        assert _map(pool, _double, [5, 6]) == [10, 12]


@needs_fork
class TestOnePool:
    def test_smaller_map_runs_on_a_subset_of_the_same_workers(self):
        shutdown_pools()
        try:
            wide = set(parallel_map(_pid, list(range(16)), workers=4))
            assert len(_pool_children()) <= 4
            narrow = set(parallel_map(_pid, list(range(16)), workers=2))
            assert len(_pool_children()) <= 4
            assert os.getpid() not in wide
            assert narrow <= wide
        finally:
            shutdown_pools()

    def test_unsupervised_map_respawns_a_killed_worker(self, tmp_path, recording):
        chaotic = FaultInjector(
            square, exit_items=(3,), once_marker=tmp_path / "fired"
        )
        out = parallel_map(chaotic, list(range(8)), workers=2)
        assert out == [x * x for x in range(8)]
        assert (tmp_path / "fired").exists(), "fault never fired"
        assert recording.snapshot()["counters"]["supervisor.respawns"] == 1

    def test_pool_rung_keeps_no_idle_workers(self):
        reset_guard()
        try:
            guard_state().escalate("test", to_level=LEVEL_POOL)
            before = _pool_children()
            out = parallel_map(square, list(range(8)), workers=2)
            assert out == [x * x for x in range(8)]
            assert _pool_children() <= before
        finally:
            reset_guard()


@needs_fork
class TestLifecycle:
    def test_shutdown_is_idempotent_and_closes_maps(self):
        p = PersistentPool()
        assert _map(p, _double, [1, 2]) == [2, 4]
        p.shutdown()
        p.shutdown()
        assert not p.alive
        # A closed pool runs maps in-process, on this very process.
        assert _map(p, _pid, [0, 1]) == [os.getpid()] * 2

    def test_shutdown_from_another_thread_mid_map(self):
        """A shutdown fired from another thread at any moment of a map.

        The pressure watchdog shuts the pool down from its own thread.
        Whenever that lands — before the workers fork, mid-map, after
        the map — the map must return every result in order, promptly,
        and leave no worker process behind.
        """
        rng = random.Random(0)
        inputs = [(_double, 400, rng.uniform(0.0, 0.03)) for _ in range(300)]
        inputs.append((_sleep_then_double, 40, 0.1))  # slow items, late shot
        baseline = _pool_children()
        for fn, n, offset in inputs:
            p = PersistentPool()
            out = []
            runner = threading.Thread(
                target=lambda: out.append(_map(p, fn, list(range(n)))),
                daemon=True,
            )
            killer = threading.Timer(offset, p.shutdown)
            killer.start()
            runner.start()
            runner.join(timeout=5.0)
            killer.join()
            assert not runner.is_alive(), f"map hung (shutdown at {offset:.4f}s)"
            p.shutdown()
            assert out == [[2 * x for x in range(n)]]
            assert _pool_children() <= baseline, "worker outlived shutdown"

    def test_cancel_mid_map_kills_stragglers_and_raises(self, pool, recording):
        token = CancellationToken()
        killer = threading.Timer(0.2, token.cancel)
        killer.start()
        start = time.monotonic()
        try:
            with cancel_scope(token), pytest.raises(RunInterrupted):
                _map(pool, _sleep_long, list(range(40)))
        finally:
            killer.join()
        # One second of grace for the in-flight items, not the 60 s item.
        assert time.monotonic() - start < 5.0
        assert recording.snapshot()["counters"]["supervisor.cancelled"] == 1
        assert _map(pool, _double, [1, 2]) == [2, 4]

    def test_workers_must_be_positive(self, pool):
        with pytest.raises(ValueError):
            pool.map(_double, [1, 2], workers=0, config=SupervisorConfig())

    def test_registry_returns_live_pool_then_replaces_dead_one(self):
        try:
            p = get_pool()
            assert p is not None and p.alive
            assert get_pool() is p
            p.shutdown()
            replacement = get_pool()
            assert replacement is not None and replacement is not p
            assert _map(replacement, _double, [4, 5]) == [8, 10]
        finally:
            shutdown_pools()

    def test_shutdown_pools_clears_registry(self):
        p = get_pool()
        assert p is not None
        shutdown_pools()
        assert not p.alive


class TestDefaultWorkers:
    def test_positive(self):
        assert default_workers() >= 1

    def test_respects_cpu_affinity(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert default_workers() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        def broken(pid):
            raise OSError("no affinity")

        monkeypatch.setattr(os, "sched_getaffinity", broken, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert default_workers() == 7


class TestResolveWorkers:
    """``resolve_workers`` is the single auto-detect entry point: every
    worker-count knob (CLI flags, engine defaults) routes through it."""

    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    def test_none_means_auto(self):
        assert resolve_workers(None) == default_workers()

    def test_zero_and_negative_mean_auto(self):
        assert resolve_workers(0) == default_workers()
        assert resolve_workers(-1) == default_workers()

    def test_returns_int(self):
        assert isinstance(resolve_workers(np.int64(2)), int)
