"""Tests for frame buffers and procedural noise."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.render import (
    cell_noise,
    clip_frame,
    fractal_noise,
    hash01,
    new_frame,
    value_noise,
)


class TestHash01:
    def test_deterministic(self):
        a = hash01(np.arange(10), np.arange(10), seed=3)
        b = hash01(np.arange(10), np.arange(10), seed=3)
        assert np.array_equal(a, b)

    def test_seed_changes_values(self):
        a = hash01(np.arange(100), np.zeros(100, dtype=int), seed=1)
        b = hash01(np.arange(100), np.zeros(100, dtype=int), seed=2)
        assert not np.array_equal(a, b)

    def test_range(self):
        vals = hash01(np.arange(-500, 500), np.arange(1000), seed=9)
        assert np.all(vals >= 0.0)
        assert np.all(vals < 1.0)

    def test_roughly_uniform(self):
        xs, ys = np.meshgrid(np.arange(100), np.arange(100))
        vals = hash01(xs, ys, seed=4)
        assert 0.45 < vals.mean() < 0.55
        assert vals.std() > 0.2

    def test_negative_coordinates_ok(self):
        vals = hash01(np.array([-5, -1, 0]), np.array([-9, 3, 0]), seed=0)
        assert np.all((vals >= 0) & (vals < 1))


class TestValueNoise:
    def test_smooth_between_lattice(self):
        # Noise varies continuously: small coordinate deltas -> small changes.
        x = np.linspace(0, 5, 1000)
        vals = value_noise(x, np.zeros_like(x), seed=1)
        assert np.max(np.abs(np.diff(vals))) < 0.05

    def test_lattice_values_match_hash(self):
        v = value_noise(np.array([3.0]), np.array([4.0]), seed=7)
        h = hash01(np.array([3]), np.array([4]), seed=7)
        assert v[0] == pytest.approx(h[0])

    def test_range(self):
        xs = np.linspace(-10, 10, 40)
        vals = value_noise(xs[:, None], xs[None, :], seed=2)
        assert np.all((vals >= 0.0) & (vals < 1.0))

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
            min_size=1, max_size=16,
        ),
        st.integers(-(2**40), 2**40),
    )
    @example([(-3.5, -0.25), (-1.0, 2.75)], -7)
    def test_equals_four_hash_reference(self, points, seed):
        """The shared linear term gives the four corners' hashes exactly,
        negative lattice coordinates and seeds included."""
        x, y = (np.array(axis) for axis in zip(*points))
        x0, y0 = np.floor(x), np.floor(y)
        fx, fy = x - x0, y - y0
        sx = fx * fx * (3.0 - 2.0 * fx)
        sy = fy * fy * (3.0 - 2.0 * fy)
        ix, iy = x0.astype(np.int64), y0.astype(np.int64)
        v00, v10 = hash01(ix, iy, seed), hash01(ix + 1, iy, seed)
        v01, v11 = hash01(ix, iy + 1, seed), hash01(ix + 1, iy + 1, seed)
        top = v00 + (v10 - v00) * sx
        bottom = v01 + (v11 - v01) * sx
        expected = top + (bottom - top) * sy
        assert np.array_equal(value_noise(x, y, seed), expected)

    @settings(max_examples=20)
    @given(st.floats(min_value=-100, max_value=100), st.floats(min_value=-100, max_value=100))
    def test_scalar_like_inputs(self, x, y):
        v = value_noise(np.array([x]), np.array([y]), seed=5)
        assert 0.0 <= float(v[0]) < 1.0


class TestCellNoise:
    def test_constant_within_cell(self):
        a = cell_noise(np.array([3.1]), np.array([4.2]), seed=1)
        b = cell_noise(np.array([3.9]), np.array([4.8]), seed=1)
        assert a[0] == b[0]

    def test_changes_across_cells(self):
        xs = np.arange(50, dtype=float)
        vals = cell_noise(xs, np.zeros_like(xs), seed=1)
        assert len(np.unique(vals)) > 30


class TestFractalNoise:
    def test_range_and_shape(self):
        xs, ys = np.meshgrid(np.linspace(0, 9, 32), np.linspace(0, 9, 16))
        vals = fractal_noise(xs, ys, seed=3, octaves=3)
        assert vals.shape == (16, 32)
        assert np.all((vals >= 0.0) & (vals < 1.0))

    def test_more_octaves_more_detail(self):
        xs = np.linspace(0, 4, 512)
        coarse = fractal_noise(xs, np.zeros_like(xs), seed=3, octaves=1)
        fine = fractal_noise(xs, np.zeros_like(xs), seed=3, octaves=4)
        # Total variation increases with octaves.
        assert np.abs(np.diff(fine)).sum() > np.abs(np.diff(coarse)).sum()

    def test_invalid_octaves(self):
        with pytest.raises(ValueError):
            fractal_noise(np.zeros(1), np.zeros(1), seed=0, octaves=0)


class TestFrameHelpers:
    def test_new_frame(self):
        f = new_frame(8, 4)
        assert f.shape == (4, 8)
        assert f.dtype == np.float32
        assert np.all(f == 0.0)

    def test_new_frame_invalid(self):
        with pytest.raises(ValueError):
            new_frame(0, 4)

    def test_clip_frame(self):
        f = np.array([[-1.0, 0.5, 2.0]], dtype=np.float32)
        out = clip_frame(f)
        assert np.array_equal(out, np.array([[0.0, 0.5, 1.0]], dtype=np.float32))
        assert out is f
