"""Unit tests for the ABR controller: ladder, hysteresis, drops, accounting.

The controller is pure arithmetic over the observation stream, so every
decision is pinned with hand-built estimator feeds — no simulator in
this file.
"""

import pytest

from repro.adapt import AbrConfig, AbrController, crf_size_scale
from repro.net import EstimatorConfig

DEADLINE_MS = 12.0
NOMINAL_BYTES = 150_000.0


def controller(**overrides):
    config_kwargs = dict(
        estimator=EstimatorConfig(warmup_samples=2),
    )
    config_kwargs.update(overrides)
    return AbrController(
        AbrConfig(**config_kwargs),
        player_id=0,
        base_crf=23.0,
        deadline_ms=DEADLINE_MS,
        nominal_bytes=NOMINAL_BYTES,
    )


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
        AbrConfig()

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="at least one rung"):
            AbrConfig(ladder=())

    def test_out_of_range_crf_rejected(self):
        with pytest.raises(ValueError, match="\\[0, 51\\]"):
            AbrConfig(ladder=(22.0, 60.0))

    def test_duplicate_rungs_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            AbrConfig(ladder=(22.0, 22.0))

    def test_inverted_watermarks_rejected(self):
        with pytest.raises(ValueError, match="hysteresis"):
            AbrConfig(high_watermark=0.5, low_watermark=0.6)

    def test_drop_margin_below_high_watermark_rejected(self):
        with pytest.raises(ValueError, match="drop_margin"):
            AbrConfig(high_watermark=0.9, drop_margin=0.8)

    def test_bad_throttle_rejected(self):
        with pytest.raises(ValueError, match="prefetch_throttle"):
            AbrConfig(prefetch_throttle=0.5)


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
        ctl = controller(dwell_ms=0.0)
        feed_rate(ctl, 0.0, 10.0, n=3)
        assert ctl.on_frame(10.0) == "down"
        # Link recovers; enough samples for the EWMA (alpha 0.3) to flush
        # the congested history out of the smoothed unit delay.
        feed_rate(ctl, 20.0, 1000.0, n=15)
        assert ctl.on_frame(40.0) == "up"
        assert ctl.crf == 23.0
        assert ctl.steps_up == 1

    def test_dwell_blocks_consecutive_steps(self):
        ctl = controller(dwell_ms=500.0)
        feed_rate(ctl, 0.0, 5.0, n=3)
        assert ctl.on_frame(10.0) == "down"
        assert ctl.on_frame(200.0) is None  # inside the dwell
        assert ctl.on_frame(511.0) == "down"  # dwell expired

    def test_never_steps_below_bottom_rung(self):
        ctl = controller(dwell_ms=0.0)
        feed_rate(ctl, 0.0, 0.5, n=3)
        for t in range(1, 30):
            ctl.on_frame(float(t))
        assert ctl.rung == len(ctl.ladder) - 1
        assert ctl.crf == max(ctl.ladder)

    def test_never_steps_above_base_even_on_fast_link(self):
        ctl = controller(dwell_ms=0.0)
        feed_rate(ctl, 0.0, 10_000.0, n=5)
        assert ctl.on_frame(10.0) is None
        assert ctl.rung == ctl.ladder.index(23.0)

    def test_timeline_records_every_step(self):
        ctl = controller(dwell_ms=0.0)
        feed_rate(ctl, 0.0, 10.0, n=3)
        ctl.on_frame(10.0)
        feed_rate(ctl, 20.0, 1000.0, n=15)
        ctl.on_frame(40.0)
        assert ctl.crf_timeline[0] == (0.0, 23.0)
        assert len(ctl.crf_timeline) == 3
        assert ctl.crf_timeline[-1][1] == 23.0


class TestThrottle:
    def test_unity_at_base_quality(self):
        ctl = controller(prefetch_throttle=1.8)
        assert ctl.thresh_scale() == 1.0

    def test_throttle_applied_while_degraded(self):
        ctl = controller(prefetch_throttle=1.8)
        feed_rate(ctl, 0.0, 5.0, n=3)
        ctl.on_frame(10.0)
        assert ctl.degraded
        assert ctl.thresh_scale() == 1.8


class TestDropPolicy:
    def test_no_drop_during_warmup(self):
        ctl = controller()
        assert not ctl.should_drop(0.0, NOMINAL_BYTES)

    def test_drops_when_forecast_hopeless(self):
        ctl = controller(drop_margin=1.4)
        # 1.2 Mbit at 1 Mbit/s = 1200 ms >> 1.4 * 12 ms.
        feed_rate(ctl, 0.0, 1.0, n=3)
        assert ctl.should_drop(10.0, NOMINAL_BYTES)
        assert ctl.drops == 1

    def test_no_drop_when_forecast_fits(self):
        ctl = controller()
        feed_rate(ctl, 0.0, 1000.0, n=3)
        assert not ctl.should_drop(10.0, NOMINAL_BYTES)
        assert ctl.drops == 0

    def test_consecutive_drop_cap_forces_fetch(self):
        ctl = controller(max_consecutive_drops=2)
        feed_rate(ctl, 0.0, 1.0, n=3)
        assert ctl.should_drop(10.0, NOMINAL_BYTES)
        assert ctl.should_drop(11.0, NOMINAL_BYTES)
        # Cap reached: the third frame must fetch to refresh the estimator.
        assert not ctl.should_drop(12.0, NOMINAL_BYTES)

    def test_observe_resets_consecutive_drops(self):
        ctl = controller(max_consecutive_drops=2)
        feed_rate(ctl, 0.0, 1.0, n=3)
        assert ctl.should_drop(10.0, NOMINAL_BYTES)
        feed_rate(ctl, 20.0, 1.0, n=1)  # a real fetch completed
        assert ctl.should_drop(21.0, NOMINAL_BYTES)
        assert ctl.should_drop(22.0, NOMINAL_BYTES)

    def test_drop_policy_disabled(self):
        ctl = controller(drop_policy=False)
        feed_rate(ctl, 0.0, 1.0, n=3)
        assert not ctl.should_drop(10.0, NOMINAL_BYTES)


class TestAccounting:
    def test_mean_crf_time_weighted(self):
        ctl = controller(dwell_ms=0.0)
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
        ctl = controller(dwell_ms=0.0)
        feed_rate(ctl, 0.0, 5.0, n=3)
        ctl.on_frame(100.0)  # degraded from t=100
        feed_rate(ctl, 150.0, 2000.0, n=15)
        ctl.on_frame(300.0)  # recovered at t=300
        assert ctl.degraded_ms(1000.0) == pytest.approx(200.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            AbrController(AbrConfig(), 0, base_crf=23.0, deadline_ms=0.0,
                          nominal_bytes=1000.0)
        with pytest.raises(ValueError, match="nominal_bytes"):
            AbrController(AbrConfig(), 0, base_crf=23.0, deadline_ms=10.0,
                          nominal_bytes=0.0)
