"""Tests for the perf registry (timers, counters, snapshots, report)."""

import time

import pytest

from repro import perf
from repro.perf import PerfRegistry, StageStats


class TestStageStats:
    def test_accumulates(self):
        stats = StageStats()
        stats.add(0.5)
        stats.add(1.5)
        assert stats.calls == 2
        assert stats.total_s == pytest.approx(2.0)
        assert stats.min_s == pytest.approx(0.5)
        assert stats.max_s == pytest.approx(1.5)
        assert stats.mean_ms == pytest.approx(1000.0)

    def test_rejects_invalid(self):
        stats = StageStats()
        with pytest.raises(ValueError):
            stats.add(-1.0)

    def test_empty_mean_is_zero(self):
        assert StageStats().mean_ms == 0.0


class TestPerfRegistry:
    def test_timed_records_elapsed(self):
        reg = PerfRegistry()
        with reg.timed("work"):
            time.sleep(0.01)
        stage = reg.stage("work")
        assert stage is not None
        assert stage.calls == 1
        assert stage.total_s >= 0.009

    def test_timed_records_on_exception(self):
        reg = PerfRegistry()
        with pytest.raises(RuntimeError):
            with reg.timed("work"):
                raise RuntimeError("boom")
        assert reg.stage("work").calls == 1

    def test_counters(self):
        reg = PerfRegistry()
        reg.count("hits")
        reg.count("hits", 4)
        assert reg.counter("hits") == 5
        assert reg.counter("unknown") == 0

    def test_snapshot_is_a_detached_copy(self):
        reg = PerfRegistry()
        reg.add_time("raster", 0.25)
        reg.count("renders", 7)
        snap = reg.snapshot()
        assert snap == {
            "stages": {
                "raster": {"calls": 1, "total_s": 0.25, "min_s": 0.25, "max_s": 0.25}
            },
            "counters": {"renders": 7},
        }
        reg.count("renders")
        assert snap["counters"]["renders"] == 7

    def test_reset(self):
        reg = PerfRegistry()
        reg.add_time("x", 1.0)
        reg.count("y")
        reg.reset()
        assert reg.stage("x") is None
        assert reg.counter("y") == 0
        assert reg.snapshot() == {"stages": {}, "counters": {}}

    def test_report_contains_stages_and_counters(self):
        reg = PerfRegistry()
        reg.add_time("raster", 2.0)
        reg.add_time("ssim", 0.5)
        reg.count("cache.hits", 3)
        text = reg.report()
        assert "raster" in text
        assert "ssim" in text
        assert "cache.hits" in text
        # Default sort: largest total first.
        assert text.index("raster") < text.index("ssim")


class TestModuleSingleton:
    def test_module_helpers_hit_shared_registry(self):
        before = perf.counter("test_perf.unit")
        perf.count("test_perf.unit")
        assert perf.counter("test_perf.unit") == before + 1

    def test_pipeline_stages_reach_registry(self):
        """The wired-in hot stages actually report when exercised."""
        import numpy as np

        from repro.codec import FrameCodec
        from repro.similarity import ssim

        frame = np.random.default_rng(0).random((16, 32)).astype(np.float32)
        ssim_before = (perf.stage("ssim") or StageStats()).calls
        encode_before = (perf.stage("encode") or StageStats()).calls
        ssim(frame, frame)
        FrameCodec().encode(frame)
        assert perf.stage("ssim").calls > ssim_before
        assert perf.stage("encode").calls > encode_before


class TestReportAlignment:
    def test_long_stage_names_stay_aligned(self):
        """Regression: names > 24 chars used to shear the columns."""
        reg = PerfRegistry()
        long_name = "a.very.long.stage.name.that.exceeds.24.chars"
        reg.add_time(long_name, 1.0)
        reg.add_time("short", 2.0)
        reg.count("an.even.longer.counter.name.for.good.measure", 3)
        lines = reg.report().splitlines()
        # Every row pads the name to one shared column width, so the
        # numeric columns line up; header format is
        # "{stage:{w}} {calls:>8} {total s:>10} {mean ms:>10}".
        header = lines[0]
        width = len(header) - 31
        assert width >= len(long_name)
        assert width >= len("an.even.longer.counter.name.for.good.measure")
        for line in lines:
            # the name column never bleeds into the first numeric column
            assert line[width] == " "
        stage_rows = lines[1:3]
        assert {row[:width].rstrip() for row in stage_rows} == {long_name, "short"}
        # the right-aligned "calls" values end at the same offset
        assert all(row[width + 1:width + 9].lstrip().isdigit() for row in stage_rows)

    def test_short_names_keep_historical_width(self):
        reg = PerfRegistry()
        reg.add_time("raster", 1.0)
        header = reg.report().splitlines()[0]
        assert len(header) - 31 == 24  # name column stays 24 wide
