"""Unit tests for the pose predictor and the FNV-1a digest helpers.

The predictor's contract: deterministic forecasts (same observations →
bit-identical predictions), exact extrapolation on linear motion,
confidence radii that widen after realized error and re-converge after
clean stretches, and misprediction accounting against the shipped
radius.  The digest helpers must be order- and value-sensitive down to
the float64 bit pattern — they are the oracle the rollback correction
and the sync validator both trust.
"""

import math

import pytest

from repro.geometry import Vec2
from repro.predict import (
    PosePredictor,
    PredictConfig,
    float_bits,
    fnv1a,
    int_bits,
    pose_digest,
    stored_frame_digest,
    wrap_angle,
)
from repro.trace.movement import FRAME_MS


def feed_linear(predictor, n, vx=0.001, vy=0.0, heading=0.0, dt=FRAME_MS):
    """Observe ``n`` poses along a constant-velocity line; returns last t."""
    t = 0.0
    for i in range(n):
        t = i * dt
        predictor.observe(t, Vec2(vx * t, vy * t), heading)
    return t


class TestPredictConfig:
    def test_defaults_valid(self):
        assert PredictConfig().horizon_frames == 6

    @pytest.mark.parametrize("kwargs", [dict(horizon_frames=0)])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PredictConfig(**kwargs)


class TestWrapAngle:
    def test_identity_inside_band(self):
        assert wrap_angle(1.0) == pytest.approx(1.0)
        assert wrap_angle(-1.0) == pytest.approx(-1.0)

    def test_wraps_full_turns(self):
        assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)
        assert wrap_angle(-2 * math.pi - 0.25) == pytest.approx(-0.25)

    def test_shortest_turn_across_pi(self):
        # 350 degrees forward is 10 degrees backward.
        assert wrap_angle(math.radians(350)) == pytest.approx(
            math.radians(-10)
        )


class TestPosePredictor:
    def test_no_forecast_before_velocity(self):
        predictor = PosePredictor(PredictConfig())
        assert predictor.predict(0.0) is None
        predictor.observe(0.0, Vec2(0.0, 0.0), 0.0)
        assert predictor.predict(0.0) is None  # one sample: no velocity yet

    def test_linear_motion_extrapolates_exactly(self):
        predictor = PosePredictor(PredictConfig(horizon_frames=6))
        t = feed_linear(predictor, 5, vx=0.002)
        forecast = predictor.predict(t)
        assert forecast is not None
        expected_t = t + 6 * FRAME_MS
        assert forecast.t_ms == expected_t
        assert forecast.position.x == pytest.approx(0.002 * expected_t)
        assert forecast.position.y == pytest.approx(0.0)

    def test_forecasts_are_deterministic(self):
        def one():
            predictor = PosePredictor(PredictConfig())
            t = feed_linear(predictor, 8, vx=0.0015, vy=-0.0005, heading=0.3)
            forecast = predictor.predict(t)
            return (forecast.t_ms, forecast.position.x, forecast.position.y,
                    forecast.heading, forecast.confidence_m)

        assert one() == one()

    def test_accurate_forecasts_shrink_the_radius(self):
        predictor = PosePredictor(PredictConfig())
        t = feed_linear(predictor, 3)
        initial = predictor.confidence_m
        # Keep observing the same line: realized error stays ~0, so the
        # error EWMA (and hence the radius) decays toward zero.
        for i in range(3, 30):
            predictor.predict(i * FRAME_MS)
            t = i * FRAME_MS
            predictor.observe(t, Vec2(0.001 * t, 0.0), 0.0)
        assert predictor.confidence_m < initial
        assert predictor.mispredictions == 0

    def test_teleport_counts_a_misprediction_and_widens_radius(self):
        predictor = PosePredictor(PredictConfig())
        t = feed_linear(predictor, 4)
        before = predictor.confidence_m
        forecast = predictor.predict(t)
        assert forecast is not None
        # Reality at the forecast's target time is a 50 m teleport away.
        predictor.observe(forecast.t_ms, Vec2(50.0, 50.0), 0.0)
        assert predictor.mispredictions == 1
        # Every forecast scored so far missed its radius.
        scored = predictor.predictions - len(predictor._outstanding)
        assert scored == predictor.mispredictions
        assert predictor.confidence_m > before


class TestDigests:
    def test_fnv1a_order_sensitive(self):
        assert fnv1a(b"ab") != fnv1a(b"ba")
        assert fnv1a(b"") == 0xCBF29CE484222325  # the FNV-1a offset basis

    def test_int_and_float_bits_distinguish_values(self):
        assert int_bits(1, 2) != int_bits(2, 1)
        assert float_bits(0.1) != float_bits(0.1 + 1e-16) or (
            0.1 == 0.1 + 1e-16
        )
        # -0.0 and 0.0 compare equal but have different bit patterns: the
        # digest is over bits, not values.
        assert float_bits(-0.0) != float_bits(0.0)

    def test_pose_digest_sensitive_to_every_field(self):
        base = pose_digest(1.0, 2.0, 3.0, 4.0)
        assert pose_digest(1.5, 2.0, 3.0, 4.0) != base
        assert pose_digest(1.0, 2.5, 3.0, 4.0) != base
        assert pose_digest(1.0, 2.0, 3.5, 4.0) != base
        assert pose_digest(1.0, 2.0, 3.0, 4.5) != base
        assert pose_digest(1.0, 2.0, 3.0, 4.0) == base

    def test_stored_frame_digest_covers_viewpoint_and_size(self):
        class Stored:
            """Minimal StoredFrame stand-in for digesting."""

            def __init__(self, wire_bytes, viewpoint):
                self.wire_bytes = wire_bytes
                self.viewpoint = viewpoint

        a = stored_frame_digest(Stored(100, Vec2(1.0, 2.0)), (3, 4))
        assert stored_frame_digest(Stored(101, Vec2(1.0, 2.0)), (3, 4)) != a
        assert stored_frame_digest(Stored(100, Vec2(1.1, 2.0)), (3, 4)) != a
        assert stored_frame_digest(Stored(100, Vec2(1.0, 2.0)), (4, 3)) != a
        assert stored_frame_digest(Stored(100, Vec2(1.0, 2.0)), (3, 4)) == a
