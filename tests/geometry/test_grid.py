"""Tests for WorldGrid and Rect."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Rect, Vec2, WorldGrid


@pytest.fixture
def small_grid():
    return WorldGrid(Rect(0, 0, 10, 10), pitch=1.0)


class TestRect:
    def test_dimensions(self):
        r = Rect(0, 0, 4, 2)
        assert r.width == 4
        assert r.height == 2
        assert r.area == 8
        assert r.center == Vec2(2, 1)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_contains_half_open(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains(Vec2(0, 0))
        assert not r.contains(Vec2(1, 1))
        assert r.contains_closed(Vec2(1, 1))

    def test_clamp(self):
        r = Rect(0, 0, 1, 1)
        assert r.clamp(Vec2(5, -3)) == Vec2(1, 0)

    def test_quadrants_tile_parent(self):
        r = Rect(0, 0, 4, 4)
        quads = r.quadrants()
        assert len(quads) == 4
        assert sum(q.area for q in quads) == r.area
        # Every quadrant lies inside the parent.
        for q in quads:
            assert q.x_min >= r.x_min and q.x_max <= r.x_max
            assert q.y_min >= r.y_min and q.y_max <= r.y_max

    def test_sample_within_bounds(self):
        r = Rect(-5, 2, 5, 8)
        rng = np.random.default_rng(0)
        for p in r.sample(rng, 50):
            assert r.contains_closed(p)


class TestWorldGrid:
    def test_grid_shape(self, small_grid):
        assert small_grid.nx == 11
        assert small_grid.ny == 11
        assert small_grid.total_points == 121

    def test_bad_pitch(self):
        with pytest.raises(ValueError):
            WorldGrid(Rect(0, 0, 1, 1), pitch=0)

    def test_snap_roundtrip(self, small_grid):
        gp = small_grid.snap(Vec2(3.4, 6.6))
        assert gp == (3, 7)
        assert small_grid.to_world(gp) == Vec2(3, 7)

    def test_snap_clamps_outside(self, small_grid):
        assert small_grid.snap(Vec2(-5, 50)) == (0, 10)

    def test_to_world_out_of_range(self, small_grid):
        with pytest.raises(IndexError):
            small_grid.to_world((99, 0))

    def test_reachability_mask(self):
        # Only the left half of the world is reachable.
        grid = WorldGrid(Rect(0, 0, 10, 10), 1.0, reachable=lambda p: p.x < 5)
        assert grid.is_reachable((0, 0))
        assert not grid.is_reachable((9, 0))
        assert not grid.is_reachable((50, 50))

    def test_count_reachable_full(self, small_grid):
        rng = np.random.default_rng(1)
        assert small_grid.count_reachable(rng) == 121

    def test_count_reachable_half(self):
        grid = WorldGrid(Rect(0, 0, 100, 100), 1.0, reachable=lambda p: p.x < 50)
        rng = np.random.default_rng(2)
        est = grid.count_reachable(rng, sample_size=8000)
        assert 0.4 * grid.total_points < est < 0.6 * grid.total_points

    @given(
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
    )
    def test_snap_is_nearest(self, x, y):
        grid = WorldGrid(Rect(0, 0, 10, 10), pitch=1.0)
        p = Vec2(x, y)
        gp = grid.snap(p)
        # No other grid point is strictly closer than the snapped one.
        best = grid.to_world(gp).distance_to(p)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                nbr = (gp[0] + di, gp[1] + dj)
                if grid.in_range(nbr):
                    assert grid.to_world(nbr).distance_to(p) >= best - 1e-9

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    def test_world_snap_identity(self, i, j):
        grid = WorldGrid(Rect(0, 0, 10, 10), pitch=1.0)
        assert grid.snap(grid.to_world((i, j))) == (i, j)

    @given(
        st.lists(
            st.one_of(
                st.floats(-50.0, 250.0, allow_nan=False),
                # Half-pitch ties, where rounding must go to even like ``round``.
                st.integers(-40, 500).map(lambda k: -7.5 + (k + 0.5) * 0.375),
            ),
            min_size=2,
            max_size=40,
        ),
        st.sampled_from([0.375, 1.0 / 32, 7.0]),
    )
    def test_snap_many_is_snap_then_to_world(self, coords, pitch):
        grid = WorldGrid(Rect(-7.5, 3.0, 180.25, 96.0), pitch=pitch)
        n = len(coords) // 2
        xs, ys = np.array(coords[:n]), np.array(coords[n : 2 * n])
        i, j, x, y = grid.snap_many(xs, ys)
        for k, (px, py) in enumerate(zip(xs.tolist(), ys.tolist())):
            gp = grid.snap(Vec2(px, py))
            assert (int(i[k]), int(j[k])) == gp
            assert Vec2(float(x[k]), float(y[k])) == grid.to_world(gp)
