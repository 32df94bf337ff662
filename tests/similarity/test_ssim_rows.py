"""Row-limited SSIM against the full five-filter computation, bit for bit.

:func:`ssim`, :func:`ssim_map`, :func:`ssim_with` and :func:`ssim_pairs`
blur only the rows within the blur radius of a row where the two frames
differ and write 1.0 everywhere else.  The oracle here is the full-frame
kernel they replaced: blur(x), blur(y), blur(x²), blur(y²) and blur(xy)
over every row, then the SSIM fraction.  Frames differ in random row
bands, at and near the frame edges, not at all, everywhere, or only in
the sign of zero, and some are wide enough that a band is scored in
several slabs.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate1d

from repro import perf
from repro.similarity import prepare_reference, ssim, ssim_map, ssim_map_with, ssim_pairs, ssim_with
from repro.similarity.ssim import _C1, _C2, _RADIUS, _WINDOW


def _full_blur(img):
    tmp = correlate1d(img, _WINDOW, axis=-2, mode="reflect")
    return correlate1d(tmp, _WINDOW, axis=-1, mode="reflect")


def oracle_map(a, b):
    """The full-frame SSIM map: five blurs over every row."""
    x, y = a.astype(np.float64), b.astype(np.float64)
    mu_x, mu_y = _full_blur(x), _full_blur(y)
    mu_x_sq, mu_y_sq = mu_x * mu_x, mu_y * mu_y
    sigma_x_sq = _full_blur(x * x) - mu_x_sq
    sigma_y_sq = _full_blur(y * y) - mu_y_sq
    mu_xy = mu_x * mu_y
    sigma_xy = _full_blur(x * y) - mu_xy
    numerator = (2.0 * mu_xy + _C1) * (2.0 * sigma_xy + _C2)
    denominator = (mu_x_sq + mu_y_sq + _C1) * (sigma_x_sq + sigma_y_sq + _C2)
    return numerator / denominator


def bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


#: Widths include 256 and 300, where a band wider than the slab budget is
#: scored in several pieces.
WIDTHS = (4, 7, 19, 64, 256, 300)


@st.composite
def frame_pair(draw, shape=None):
    """Two float32 frames equal except in the drawn row bands."""
    if shape is None:
        shape = (draw(st.integers(4, 72)), draw(st.sampled_from(WIDTHS)))
    h, w = shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random(shape).astype(np.float32)
    # Whole zero rows and scattered zeros, so the sign-of-zero case has
    # something to flip.
    a[rng.random(shape) < 0.1] = 0.0
    a[draw(st.integers(0, h - 1))] = 0.0
    b = a.copy()
    kind = draw(st.sampled_from(("bands", "identical", "every_row", "signed_zero")))
    if kind == "every_row":
        b = rng.random(shape).astype(np.float32)
    elif kind == "signed_zero":
        b[a == 0.0] = -0.0
    if kind in ("bands", "signed_zero"):
        starts = st.one_of(
            st.sampled_from((0, h - 1)),
            st.integers(0, min(h - 1, _RADIUS)),
            st.integers(max(0, h - 1 - _RADIUS), h - 1),
            st.integers(0, h - 1),
        )
        for lo in draw(st.lists(starts, max_size=4)):
            hi = min(h, lo + draw(st.integers(1, 40)))
            b[lo:hi] = rng.random((hi - lo, w))
    return a, b


def _zero_flip_pair():
    a = np.random.default_rng(1).random((24, 19)).astype(np.float32)
    a[[0, 7, 23]] = 0.0
    b = a.copy()
    b[[0, 7, 23]] = -0.0
    return a, b


class TestRowLimitedSsim:
    @settings(max_examples=150, deadline=None)
    @given(frame_pair())
    @example(_zero_flip_pair())
    def test_every_entry_point_matches_full_blur(self, pair):
        a, b = pair
        expected = oracle_map(a, b)
        mean = expected.mean()
        assert ssim_map(a, b).tobytes() == expected.tobytes()
        reference = prepare_reference(a)
        assert ssim_map_with(reference, b).tobytes() == expected.tobytes()
        assert bits(ssim(a, b)) == bits(mean)
        assert bits(ssim_with(reference, b)) == bits(mean)
        assert bits(ssim_pairs([(a, b)])) == bits([mean])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(frame_pair(), min_size=1, max_size=5))
    def test_pairs_of_mixed_shapes(self, pairs):
        expected = [oracle_map(a, b).mean() for a, b in pairs]
        assert bits(ssim_pairs(pairs)) == bits(expected)

    def test_identical_frames_score_exactly_one(self):
        a = np.random.default_rng(2).random((40, 64)).astype(np.float32)
        assert ssim(a, a.copy()) == 1.0 == oracle_map(a, a).mean()
        assert np.all(ssim_map(a, a) == 1.0)

    def test_rows_scored_counts_the_dilated_bands(self):
        """A change in row r scores rows r - R .. r + R, clipped at the
        edges; identical frames score none; an all-new frame scores all."""
        a = np.random.default_rng(3).random((64, 32)).astype(np.float32)
        cases = (
            ({30}, 2 * _RADIUS + 1),
            ({0}, _RADIUS + 1),
            ({63}, _RADIUS + 1),
            ({10, 12}, 2 * _RADIUS + 3),
            (set(), 0),
            (set(range(64)), 64),
        )
        for rows, scored in cases:
            b = a.copy()
            b[sorted(rows)] += 0.25
            perf.reset()
            ssim(a, b)
            assert perf.counter("ssim.rows_scored") == scored, rows
