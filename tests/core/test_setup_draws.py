"""The set-up's random draws against the numpy calls they replaced.

A racing set-up draws every cutoff-map sample location and every
structure placement from a seeded stream, and the golden digests pin the
result.  Two draws were rewritten for speed, and each must give the same
doubles *and* leave the generator where the old call left it:

* ``sample_points`` scales one ``rng.random((n, 2))`` block per axis in
  place of ``rng.uniform((x_min, y_min), (x_max, y_max), size=(n, 2))``;
* ``generate_scene`` draws a placement as two scalar ``random()`` draws
  scaled to the cell, in place of ``Rect.sample(rng, 1)``, and
  ``make_object`` draws a radius the same way in place of
  ``rng.uniform(lo, hi)``.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, Vec2

coordinate = st.one_of(
    st.floats(-2_000.0, 2_000.0),
    st.integers(-2_000, 2_000).map(float),
    st.sampled_from([0.0, -0.0, 0.1 + 0.2, 1e-300, 1090.0, 1096.0]),
)


@st.composite
def rects(draw):
    """Regions of any size, degenerate (zero width or height) included."""
    x0, y0 = draw(coordinate), draw(coordinate)
    width = draw(st.one_of(st.just(0.0), st.floats(0.0, 1_200.0)))
    height = draw(st.one_of(st.just(0.0), st.floats(0.0, 1_200.0)))
    return Rect(x0, y0, x0 + width, y0 + height)


seeds = st.integers(0, 2**64 - 1)


@given(seed=seeds, region=rects(), n=st.integers(0, 90))
@settings(max_examples=300, deadline=None)
def test_scaled_block_equals_uniform_with_array_bounds(seed, region, n):
    old = np.random.default_rng(seed)
    new = np.random.default_rng(seed)
    draws = old.uniform((region.x_min, region.y_min), (region.x_max, region.y_max), size=(n, 2))
    unit = new.random((n, 2))
    xs = region.x_min + (region.x_max - region.x_min) * unit[:, 0]
    ys = region.y_min + (region.y_max - region.y_min) * unit[:, 1]
    assert xs.tolist() == draws[:, 0].tolist()
    assert ys.tolist() == draws[:, 1].tolist()
    assert new.bit_generator.state == old.bit_generator.state


@given(seed=seeds, cells=st.lists(rects(), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_scaled_scalar_pair_equals_one_point_sample(seed, cells):
    old = np.random.default_rng(seed)
    new = np.random.default_rng(seed)
    for cell in cells:
        expected = cell.sample(old, 1)[0]
        width, height = cell.x_max - cell.x_min, cell.y_max - cell.y_min
        drawn = Vec2(cell.x_min + width * new.random(), cell.y_min + height * new.random())
        assert drawn == expected
        assert type(drawn.x) is float and type(drawn.y) is float
        assert new.bit_generator.state == old.bit_generator.state
    assert new.random() == old.random()


@given(seed=seeds, bounds=st.lists(st.tuples(coordinate, st.floats(0.0, 1_000.0)), min_size=1))
@settings(max_examples=300, deadline=None)
def test_scaled_scalar_equals_uniform(seed, bounds):
    old = np.random.default_rng(seed)
    new = np.random.default_rng(seed)
    for lo, width in bounds:
        hi = lo + width
        assert lo + (hi - lo) * new.random() == old.uniform(lo, hi)
    assert new.bit_generator.state == old.bit_generator.state
