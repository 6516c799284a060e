"""Metrics registry: instrument semantics and snapshots."""

import math
import time

import pytest

from repro.obs.metrics import HISTOGRAM_SAMPLE_CAP, MetricsRegistry


class TestCounter:
    def test_increments(self):
        reg = MetricsRegistry()
        reg.inc("walks.total")
        reg.inc("walks.total", 4)
        assert reg.counter("walks.total").snapshot() == 5.0

    def test_refuses_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            reg.inc("x", -1)


class TestGauge:
    def test_nan_until_set_then_last_write_wins(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("train.lr")
        assert math.isnan(gauge.snapshot())
        reg.set("train.lr", 0.025)
        reg.set("train.lr", 0.01)
        assert gauge.snapshot() == 0.01


class TestHistogram:
    def test_summary_stats(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0, 4.0):
            reg.observe("t", v)
        snap = reg.histogram("t").snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["mean"] == 2.5
        assert snap["min"] == 1.0 and snap["max"] == 4.0
        assert snap["p50"] in (2.0, 3.0)
        assert snap["p95"] == 4.0
        assert snap["p99"] == 4.0
        assert "sample_capped" not in snap

    def test_p99_tracks_tail(self):
        hist = MetricsRegistry().histogram("t")
        for v in range(100):
            hist.observe(float(v))
        snap = hist.snapshot()
        assert snap["p99"] >= snap["p95"] >= snap["p50"]
        assert snap["p99"] == 99.0

    def test_empty_snapshot_is_just_count(self):
        assert MetricsRegistry().histogram("t").snapshot() == {"count": 0}

    def test_exact_beyond_sample_cap(self):
        hist = MetricsRegistry().histogram("t")
        for _ in range(HISTOGRAM_SAMPLE_CAP + 100):
            hist.observe(1.0)
        snap = hist.snapshot()
        # count/sum stay exact even though the percentile sample is capped
        assert snap["count"] == HISTOGRAM_SAMPLE_CAP + 100
        assert snap["sum"] == float(HISTOGRAM_SAMPLE_CAP + 100)
        # capped percentiles are flagged so consumers can tell
        # estimated-from-head values from exact ones
        assert snap["sample_capped"] is True

    def test_timer_observes_seconds(self):
        reg = MetricsRegistry()
        with reg.time("phase") as t:
            time.sleep(0.001)
        assert t.seconds > 0
        snap = reg.histogram("phase").snapshot()
        assert snap["count"] == 1
        assert snap["sum"] == pytest.approx(t.seconds)


class TestRegistry:
    def test_name_bound_to_one_kind(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(TypeError, match="is a Counter"):
            reg.gauge("x")

    def test_snapshot_groups_by_kind(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set("g", 2.0)
        reg.observe("h", 3.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 1.0}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_iteration_is_sorted(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a")
        assert list(reg) == ["a", "b"]
        assert len(reg) == 2
