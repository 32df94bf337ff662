"""Unit tests for the ABR controller: ladder, hysteresis, drops, accounting.

The controller is pure arithmetic over the observation stream, so every
decision is pinned with hand-built estimator feeds — no simulator in
this file.
"""

import pytest

from repro.adapt import AbrController, crf_size_scale
from repro.adapt import controller as abr

DEADLINE_MS = 12.0
NOMINAL_BYTES = 150_000.0


def controller():
    return AbrController(0, base_crf=23.0, deadline_ms=DEADLINE_MS, nominal_bytes=NOMINAL_BYTES)


def feed_rate(ctl, now_ms, rate_mbps, n=1, size_bytes=NOMINAL_BYTES):
    """Feed n completed transfers observed at ``rate_mbps``."""
    megabits = size_bytes * 8.0 / 1e6
    duration_ms = megabits / rate_mbps * 1000.0
    for i in range(n):
        ctl.observe_transfer(now_ms + i, size_bytes, duration_ms)
    return now_ms + n


class TestSizeScale:
    def test_base_is_unity(self):
        assert crf_size_scale(23.0, 23.0) == 1.0

    def test_six_crf_halves(self):
        assert crf_size_scale(29.0, 23.0) == pytest.approx(0.5)
        assert crf_size_scale(17.0, 23.0) == pytest.approx(2.0)

    def test_scaled_bytes_floor_is_one(self):
        ctl = controller()
        ctl.rung = len(ctl.ladder) - 1
        assert ctl.scaled_bytes(1) >= 1


class TestConfigValidation:
    def test_defaults_valid(self):
        # The ladder and hysteresis invariants the controller relies on.
        assert len(set(abr.LADDER)) == len(abr.LADDER) >= 1
        assert all(0.0 <= crf <= 51.0 for crf in abr.LADDER)
        assert 0.0 < abr.LOW_WATERMARK < abr.HIGH_WATERMARK <= abr.DROP_MARGIN
        assert abr.DWELL_MS >= 0 and abr.MAX_CONSECUTIVE_DROPS >= 1
        assert abr.PREFETCH_THROTTLE >= 1.0


class TestLadder:
    def test_starts_at_base_rung(self):
        ctl = controller()
        assert ctl.crf == 23.0
        assert not ctl.degraded
        assert ctl.base_crf in ctl.ladder

    def test_holds_rung_during_warmup(self):
        ctl = controller()
        assert ctl.on_frame(0.0) is None
        assert ctl.crf == 23.0

    def test_steps_down_when_forecast_blows_deadline(self):
        ctl = controller()
        # 1.2 Mbit at 10 Mbit/s = 120 ms >> deadline.
        feed_rate(ctl, 0.0, 10.0, n=3)
        assert ctl.on_frame(100.0) == "down"
        assert ctl.degraded
        assert ctl.steps_down == 1

    def test_steps_up_when_better_rung_fits(self):
        ctl = controller()
        feed_rate(ctl, 0.0, 10.0, n=3)
        assert ctl.on_frame(10.0) == "down"
        # Link recovers; enough samples for the EWMA (alpha 0.3) to flush
        # the congested history out of the smoothed unit delay.  The next
        # decision comes after the dwell.
        feed_rate(ctl, 20.0, 1000.0, n=15)
        assert ctl.on_frame(10.0 + abr.DWELL_MS) == "up"
        assert ctl.crf == 23.0
        assert ctl.steps_up == 1

    def test_dwell_blocks_consecutive_steps(self):
        ctl = controller()
        feed_rate(ctl, 0.0, 5.0, n=3)
        assert ctl.on_frame(10.0) == "down"
        assert ctl.on_frame(9.0 + abr.DWELL_MS) is None  # inside the dwell
        assert ctl.on_frame(10.0 + abr.DWELL_MS) == "down"  # dwell expired

    def test_never_steps_below_bottom_rung(self):
        ctl = controller()
        feed_rate(ctl, 0.0, 0.5, n=3)
        for step in range(2 * len(ctl.ladder)):
            ctl.on_frame(10.0 + step * abr.DWELL_MS)
        assert ctl.rung == len(ctl.ladder) - 1
        assert ctl.crf == max(ctl.ladder)

    def test_never_steps_above_base_even_on_fast_link(self):
        ctl = controller()
        feed_rate(ctl, 0.0, 10_000.0, n=5)
        assert ctl.on_frame(10.0) is None
        assert ctl.rung == ctl.ladder.index(23.0)

    def test_timeline_records_every_step(self):
        ctl = controller()
        feed_rate(ctl, 0.0, 10.0, n=3)
        ctl.on_frame(10.0)
        feed_rate(ctl, 20.0, 1000.0, n=15)
        ctl.on_frame(10.0 + abr.DWELL_MS)
        assert ctl.crf_timeline[0] == (0.0, 23.0)
        assert len(ctl.crf_timeline) == 3
        assert ctl.crf_timeline[-1][1] == 23.0


class TestThrottle:
    def test_unity_at_base_quality(self):
        ctl = controller()
        assert ctl.thresh_scale() == 1.0

    def test_throttle_applied_while_degraded(self):
        ctl = controller()
        feed_rate(ctl, 0.0, 5.0, n=3)
        ctl.on_frame(10.0)
        assert ctl.degraded
        assert ctl.thresh_scale() == abr.PREFETCH_THROTTLE > 1.0


class TestDropPolicy:
    def test_no_drop_during_warmup(self):
        ctl = controller()
        assert not ctl.should_drop(0.0, NOMINAL_BYTES)

    def test_drops_when_forecast_hopeless(self):
        ctl = controller()
        # 1.2 Mbit at 1 Mbit/s = 1200 ms >> DROP_MARGIN * 12 ms.
        feed_rate(ctl, 0.0, 1.0, n=3)
        assert ctl.should_drop(10.0, NOMINAL_BYTES)
        assert ctl.drops == 1

    def test_no_drop_when_forecast_fits(self):
        ctl = controller()
        feed_rate(ctl, 0.0, 1000.0, n=3)
        assert not ctl.should_drop(10.0, NOMINAL_BYTES)
        assert ctl.drops == 0

    def test_consecutive_drop_cap_forces_fetch(self):
        ctl = controller()
        feed_rate(ctl, 0.0, 1.0, n=3)
        for i in range(abr.MAX_CONSECUTIVE_DROPS):
            assert ctl.should_drop(10.0 + i, NOMINAL_BYTES)
        # Cap reached: the next frame must fetch to refresh the estimator.
        assert not ctl.should_drop(20.0, NOMINAL_BYTES)

    def test_observe_resets_consecutive_drops(self):
        ctl = controller()
        feed_rate(ctl, 0.0, 1.0, n=3)
        for i in range(abr.MAX_CONSECUTIVE_DROPS - 1):
            assert ctl.should_drop(10.0 + i, NOMINAL_BYTES)
        feed_rate(ctl, 20.0, 1.0, n=1)  # a real fetch completed
        for i in range(abr.MAX_CONSECUTIVE_DROPS):
            assert ctl.should_drop(30.0 + i, NOMINAL_BYTES)


class TestAccounting:
    def test_mean_crf_time_weighted(self):
        ctl = controller()
        # Step down at t=100 (one rung: 23 -> 25 with the default ladder).
        feed_rate(ctl, 0.0, 5.0, n=3)
        ctl.on_frame(100.0)
        stepped_crf = ctl.crf
        expected = (100.0 * 23.0 + 100.0 * stepped_crf) / 200.0
        assert ctl.mean_crf(200.0) == pytest.approx(expected)

    def test_mean_crf_before_any_step(self):
        ctl = controller()
        assert ctl.mean_crf(500.0) == pytest.approx(23.0)
        assert ctl.mean_crf(0.0) == 23.0

    def test_degraded_ms(self):
        ctl = controller()
        feed_rate(ctl, 0.0, 5.0, n=3)
        ctl.on_frame(100.0)  # degraded from t=100
        feed_rate(ctl, 150.0, 2000.0, n=15)
        ctl.on_frame(100.0 + abr.DWELL_MS)  # recovered once the dwell allows
        assert ctl.degraded_ms(1000.0) == pytest.approx(abr.DWELL_MS)

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            AbrController(0, base_crf=23.0, deadline_ms=0.0,
                          nominal_bytes=1000.0)
        with pytest.raises(ValueError, match="nominal_bytes"):
            AbrController(0, base_crf=23.0, deadline_ms=10.0,
                          nominal_bytes=0.0)
