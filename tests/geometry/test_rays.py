"""Tests for ray queries (foothold finding, camera height)."""

import math

import pytest

from repro.geometry import Vec2, Vec3, camera_height, find_foothold


def hilly(p: Vec2) -> float:
    return 2.0 * math.sin(p.x * 0.5)


class TestFoothold:
    def test_flat_terrain(self):
        foot = find_foothold(lambda p: 0.0, Vec2(3, 4))
        assert foot == Vec3(3, 4, 0)

    def test_hilly_terrain(self):
        foot = find_foothold(hilly, Vec2(math.pi, 0))
        assert foot.z == pytest.approx(2.0 * math.sin(math.pi * 0.5))

    def test_camera_height_adds_eye(self):
        h = camera_height(lambda p: 10.0, Vec2(0, 0), eye_height=1.7)
        assert h == pytest.approx(11.7)

    def test_negative_eye_height_raises(self):
        with pytest.raises(ValueError):
            camera_height(lambda p: 0.0, Vec2(0, 0), eye_height=-1)
