"""Sampling profiler: stack aggregation, merging, and pooled workers."""

import io
import json
import os
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SUMMARY_STACK_CAP, SamplingProfiler, StackProfile
from repro.obs.recorder import ObsConfig, Recorder, session, use
from repro.parallel.pool import parallel_map


def _busy(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(200))


class TestStackProfile:
    def test_record_and_top_aggregate_by_leaf(self):
        prof = StackProfile()
        prof.record("a.py:main;b.py:inner")
        prof.record("a.py:main;b.py:inner")
        prof.record("a.py:main;c.py:other")
        assert prof.samples == 3
        top = prof.top(2)
        assert top[0] == ("b.py:inner", 2, pytest.approx(2 / 3))
        assert top[1][0] == "c.py:other"

    def test_merge_sums_counts_and_durations(self):
        a = StackProfile(duration=1.0, stacks={"x": 2}, samples=2)
        b = StackProfile(duration=0.5, stacks={"x": 1, "y": 3}, samples=4)
        a.merge(b)
        assert a.samples == 6
        assert a.duration == pytest.approx(1.5)
        assert a.stacks == {"x": 3, "y": 3}

    def test_summary_roundtrip(self):
        prof = StackProfile(hz=50.0, duration=2.0)
        for _ in range(5):
            prof.record("m.py:f;m.py:g")
        summary = prof.summary()
        back = StackProfile.from_summary(summary)
        assert back.samples == prof.samples
        assert back.stacks == prof.stacks
        assert summary["top"][0]["frame"] == "m.py:g"
        assert json.dumps(summary)  # manifest-storable

    def test_summary_caps_distinct_stacks(self):
        prof = StackProfile()
        for i in range(SUMMARY_STACK_CAP + 50):
            prof.record(f"m.py:f{i}")
        summary = prof.summary()
        assert len(summary["stacks"]) == SUMMARY_STACK_CAP
        assert summary["stacks_dropped"] == 50
        assert summary["samples"] == SUMMARY_STACK_CAP + 50  # exact

    def test_to_collapsed_is_flamegraph_lines(self):
        prof = StackProfile(stacks={"a;b": 3, "a;c": 1})
        lines = prof.to_collapsed().splitlines()
        assert lines[0] == "a;b 3"
        assert lines[1] == "a;c 1"


class TestSamplingProfiler:
    def test_samples_busy_work_in_own_thread(self):
        with SamplingProfiler(hz=200.0) as prof:
            _busy(0.25)
        profile = prof.profile
        assert profile.samples > 5
        assert profile.duration >= 0.2
        leaves = [leaf for leaf, _, _ in profile.top(5)]
        assert any("_busy" in leaf for leaf in leaves)

    def test_all_threads_mode_sees_other_threads(self):
        done = threading.Event()

        def spin():
            while not done.is_set():
                sum(range(100))

        thread = threading.Thread(target=spin, daemon=True)
        thread.start()
        try:
            with SamplingProfiler(hz=200.0, all_threads=True) as prof:
                time.sleep(0.2)
        finally:
            done.set()
            thread.join()
        leaves = [leaf for leaf, _, _ in prof.profile.top(10)]
        assert any("spin" in leaf for leaf in leaves)

    def test_rejects_bad_hz_and_double_start(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        prof = SamplingProfiler(hz=10).start()
        with pytest.raises(RuntimeError):
            prof.start()
        prof.stop()

    def test_stop_without_start_is_safe(self):
        prof = SamplingProfiler()
        assert prof.stop() is prof.profile


def _pid_after_sleep(seconds: float) -> int:
    time.sleep(seconds)  # long enough for a sampler to take samples
    return os.getpid()


def _thread_count(_) -> int:
    return threading.active_count()


class TestDrain:
    def test_hands_over_samples_and_restarts_the_tally(self):
        prof = SamplingProfiler(hz=200.0).start()
        try:
            _busy(0.15)
            first = prof.drain()
            assert first.samples > 0
            assert first.duration >= 0.1
            assert prof.profile is not first
            _busy(0.15)
            second = prof.drain()
        finally:
            prof.stop()
        assert second.samples > 0
        assert second.duration < first.duration + 0.15
        assert second.hz == first.hz == 200.0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="pool requires fork")
class TestWorkerProfiles:
    """Pooled workers are profiled over the pool's pipe, not the env."""

    def test_profiled_session_reuses_workers_and_collects_samples(self):
        before = set(parallel_map(_pid_after_sleep, [0.0, 0.0], workers=2))
        config = ObsConfig(profile=True, log_level="error")
        with session(config, stream=io.StringIO()) as rec:
            inside = set(parallel_map(_pid_after_sleep, [0.2, 0.2], workers=2))
        assert inside == before  # no re-fork on entering the session
        assert rec.profiles["workers"].samples > 0

    def test_sampler_stops_once_the_session_ends(self):
        with session(ObsConfig(profile=True, log_level="error"), stream=io.StringIO()):
            parallel_map(_pid_after_sleep, [0.05, 0.05], workers=2)
        assert parallel_map(_thread_count, [0, 1], workers=2) == [1, 1]

    def test_unprofiled_map_returns_no_profile(self):
        registry = MetricsRegistry()
        with use(Recorder(registry)) as rec:
            parallel_map(_pid_after_sleep, [0.05, 0.05], workers=2)
        assert "workers" not in rec.profiles
