"""Unit and property tests for repro.geometry.vec."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Vec2, Vec3

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestVec2:
    def test_add_sub(self):
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)
        assert Vec2(3, 4) - Vec2(1, 2) == Vec2(2, 2)

    def test_scalar_ops(self):
        assert Vec2(1, 2) * 3 == Vec2(3, 6)
        assert 3 * Vec2(1, 2) == Vec2(3, 6)
        assert Vec2(2, 4) / 2 == Vec2(1, 2)
        assert -Vec2(1, -2) == Vec2(-1, 2)

    def test_dot_cross(self):
        assert Vec2(1, 0).cross(Vec2(0, 1)) == 1

    def test_norm_and_distance(self):
        assert Vec2(3, 4).norm() == 5
        assert Vec2(3, 4).norm_sq() == 25
        assert Vec2(0, 0).distance_to(Vec2(3, 4)) == 5

    def test_lerp_endpoints_and_midpoint(self):
        a, b = Vec2(0, 0), Vec2(10, 20)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b
        assert a.lerp(b, 0.5) == Vec2(5, 10)

    def test_angle_and_from_angle(self):
        assert math.isclose(Vec2(0, 1).angle(), math.pi / 2)
        v = Vec2.from_angle(math.pi / 4, length=math.sqrt(2))
        assert math.isclose(v.x, 1.0)
        assert math.isclose(v.y, 1.0)

    def test_rotated_quarter_turn(self):
        r = Vec2(1, 0).rotated(math.pi / 2)
        assert math.isclose(r.x, 0.0, abs_tol=1e-12)
        assert math.isclose(r.y, 1.0)

    def test_iteration_and_tuple(self):
        assert list(Vec2(1, 2)) == [1, 2]
        assert tuple(Vec2(1, 2)) == (1, 2)

    def test_frozen(self):
        with pytest.raises(Exception):
            Vec2(1, 2).x = 5  # type: ignore[misc]

    @given(finite, finite, finite, finite)
    def test_add_commutes(self, ax, ay, bx, by):
        a, b = Vec2(ax, ay), Vec2(bx, by)
        assert a + b == b + a

    @given(finite, finite)
    def test_norm_non_negative(self, x, y):
        assert Vec2(x, y).norm() >= 0

    @given(finite, finite, finite, finite)
    def test_triangle_inequality(self, ax, ay, bx, by):
        a, b = Vec2(ax, ay), Vec2(bx, by)
        assert (a + b).norm() <= a.norm() + b.norm() + 1e-6

    @given(finite, finite, st.floats(min_value=0, max_value=1))
    def test_lerp_stays_on_segment(self, x, y, t):
        a = Vec2.zero()
        b = Vec2(x, y)
        p = a.lerp(b, t)
        assert p.norm() <= b.norm() + 1e-6


class TestVec3:
    def test_arithmetic(self):
        assert Vec3(1, 2, 3) + Vec3(4, 5, 6) == Vec3(5, 7, 9)
        assert Vec3(4, 5, 6) - Vec3(1, 2, 3) == Vec3(3, 3, 3)
        assert Vec3(1, 2, 3) * 2 == Vec3(2, 4, 6)
        assert Vec3(2, 4, 6) / 2 == Vec3(1, 2, 3)

    def test_cross_right_handed(self):
        assert Vec3(1, 0, 0).cross(Vec3(0, 1, 0)) == Vec3(0, 0, 1)

    def test_norm(self):
        assert Vec3(2, 3, 6).norm() == 7

    def test_ground_projection(self):
        assert Vec3(1, 2, 3).ground() == Vec2(1, 2)

    def test_lerp(self):
        assert Vec3.zero().lerp(Vec3(2, 4, 6), 0.5) == Vec3(1, 2, 3)

    @given(finite, finite, finite)
    def test_cross_perpendicular(self, x, y, z):
        v = Vec3(x, y, z)
        w = Vec3(1.0, -2.0, 0.5)
        c = v.cross(w)
        # Cross product is orthogonal to both operands.
        for u in (v, w):
            dot = c.x * u.x + c.y * u.y + c.z * u.z
            assert abs(dot) <= 1e-3 * max(1.0, v.norm_sq() * w.norm())
