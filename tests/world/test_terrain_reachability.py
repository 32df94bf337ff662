"""Tests for terrain heightfields and reachability masks."""

import math

import pytest

from repro.geometry import Rect, Vec2
from repro.world import (
    FlatTerrain,
    FullAreaMask,
    RidgeTerrain,
    RollingTerrain,
    RoomMask,
    TrackMask,
    oval_track,
)


class TestTerrain:
    def test_flat(self):
        t = FlatTerrain(elevation=2.0)
        assert t(Vec2(0, 0)) == 2.0
        assert t(Vec2(100, -50)) == 2.0

    def test_rolling_bounded(self):
        t = RollingTerrain(amplitude=1.5, wavelength=60.0, octaves=3)
        max_possible = 2 * 1.5 * (1 + 0.5 + 0.25)
        for i in range(100):
            h = t(Vec2(i * 3.7, i * 1.3))
            assert abs(h) <= max_possible

    def test_rolling_deterministic(self):
        a = RollingTerrain(phase_seed=5)
        b = RollingTerrain(phase_seed=5)
        assert a(Vec2(12.3, 45.6)) == b(Vec2(12.3, 45.6))

    def test_rolling_seed_changes_surface(self):
        a = RollingTerrain(phase_seed=1)
        b = RollingTerrain(phase_seed=2)
        assert a(Vec2(12.3, 45.6)) != b(Vec2(12.3, 45.6))

    def test_rolling_invalid(self):
        with pytest.raises(ValueError):
            RollingTerrain(amplitude=-1)
        with pytest.raises(ValueError):
            RollingTerrain(wavelength=0)

    def test_ridge_valley_low_rim_high(self):
        t = RidgeTerrain(valley_center=Vec2(0, 0), valley_radius=100.0, roughness=0.0)
        assert t(Vec2(0, 0)) == pytest.approx(0.0)
        assert t(Vec2(500, 0)) > 50.0

    def test_ridge_invalid(self):
        with pytest.raises(ValueError):
            RidgeTerrain(rim_height=-1)


class TestMasks:
    def test_full_area(self):
        mask = FullAreaMask(Rect(0, 0, 10, 10))
        assert mask(Vec2(5, 5))
        assert mask(Vec2(10, 10))
        assert not mask(Vec2(11, 5))

    def test_room_inset(self):
        mask = RoomMask(Rect(0, 0, 10, 10), wall_inset=1.0)
        assert mask(Vec2(5, 5))
        assert not mask(Vec2(0.5, 5))
        assert mask(Vec2(1.0, 5.0))

    def test_room_invalid_inset(self):
        with pytest.raises(ValueError):
            RoomMask(Rect(0, 0, 10, 10), wall_inset=-1)


class TestTrackMask:
    def _square_track(self):
        waypoints = [Vec2(0, 0), Vec2(100, 0), Vec2(100, 100), Vec2(0, 100)]
        return TrackMask(waypoints, half_width=5.0)

    def test_membership(self):
        track = self._square_track()
        assert track(Vec2(50, 0))     # on the bottom straight
        assert track(Vec2(50, 4.9))   # within half width
        assert not track(Vec2(50, 6)) # off track
        assert not track(Vec2(50, 50))

    def test_distance_to_centerline(self):
        track = self._square_track()
        assert track.distance_to_centerline(Vec2(50, 3)) == pytest.approx(3.0)

    def test_length_closed_square(self):
        assert self._square_track().length() == pytest.approx(400.0)

    def test_point_at_wraps(self):
        track = self._square_track()
        assert track.point_at(0.0) == Vec2(0, 0)
        assert track.point_at(50.0) == Vec2(50, 0)
        assert track.point_at(450.0).distance_to(Vec2(50, 0)) < 1e-9

    def test_heading_follows_track(self):
        track = self._square_track()
        assert track.heading_at(50.0) == pytest.approx(0.0, abs=0.05)
        assert track.heading_at(150.0) == pytest.approx(math.pi / 2, abs=0.05)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TrackMask([Vec2(0, 0)], 5.0)
        with pytest.raises(ValueError):
            TrackMask([Vec2(0, 0), Vec2(1, 0)], 0.0)


class TestOvalTrack:
    def test_waypoints_inside_bounds(self):
        bounds = Rect(0, 0, 100, 60)
        for p in oval_track(bounds, margin=10.0):
            assert bounds.contains_closed(p)

    def test_waypoint_count(self):
        assert len(oval_track(Rect(0, 0, 100, 100), 10.0)) == 32

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            oval_track(Rect(0, 0, 100, 100), margin=60.0)
