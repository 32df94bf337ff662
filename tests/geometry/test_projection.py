"""Tests for projection math (equirectangular angles, angular sizes)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    Vec3,
    angular_displacement,
    angular_radius,
    direction_to_angles,
)


class TestAngles:
    def test_cardinal_directions(self):
        az, el = direction_to_angles(Vec3(1, 0, 0))
        assert az == pytest.approx(0.0)
        assert el == pytest.approx(0.0)
        az, el = direction_to_angles(Vec3(0, 1, 0))
        assert az == pytest.approx(math.pi / 2)
        az, el = direction_to_angles(Vec3(0, 0, 1))
        assert el == pytest.approx(math.pi / 2)

    def test_negative_azimuth_wraps(self):
        az, _ = direction_to_angles(Vec3(0, -1, 0))
        assert az == pytest.approx(3 * math.pi / 2)

    @given(
        st.floats(min_value=0, max_value=2 * math.pi - 1e-6),
        st.floats(min_value=-math.pi / 2 + 0.01, max_value=math.pi / 2 - 0.01),
    )
    def test_angle_direction_roundtrip(self, az, el):
        ce = math.cos(el)
        direction = Vec3(ce * math.cos(az), ce * math.sin(az), math.sin(el))
        az2, el2 = direction_to_angles(direction)
        assert az2 == pytest.approx(az, abs=1e-9)
        assert el2 == pytest.approx(el, abs=1e-9)


class TestAngularSize:
    def test_shrinks_with_distance(self):
        near = angular_radius(1.0, 2.0)
        far = angular_radius(1.0, 20.0)
        assert near > far

    def test_inside_sphere_fills_view(self):
        assert angular_radius(5.0, 1.0) == math.pi

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            angular_radius(-1.0, 5.0)

    def test_small_angle_approximation(self):
        # For d >> r, angular radius ~ r/d.
        assert angular_radius(1.0, 100.0) == pytest.approx(0.01, rel=1e-3)

    def test_displacement_inverse_distance(self):
        # The near-object effect: same displacement, nearer object moves more.
        near_shift = angular_displacement(0.5, 2.0)
        far_shift = angular_displacement(0.5, 50.0)
        assert near_shift > 10 * far_shift

    @given(
        st.floats(min_value=0.01, max_value=10),
        st.floats(min_value=0.01, max_value=1000),
    )
    def test_angular_radius_monotone_in_distance(self, r, d):
        assert angular_radius(r, d) >= angular_radius(r, d * 2)
