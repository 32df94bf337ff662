"""Tests for the SSIM implementation and similarity metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import (
    SSIM_GOOD,
    adjacent_similarities,
    best_case_similarities,
    fraction_above,
    prepare_reference,
    similarity_cdf,
    ssim,
    ssim_many,
    ssim_map,
    ssim_with,
)


def noise_frame(seed, shape=(32, 64)):
    return np.random.default_rng(seed).random(shape).astype(np.float32)


def ramp_frame(shape=(32, 64)):
    """A deterministic textured frame (no RNG) for pinned-value tests."""
    y, x = np.mgrid[0 : shape[0], 0 : shape[1]]
    return 0.5 + 0.25 * np.sin(x / 3.0) + 0.25 * np.cos(y / 5.0)


class TestSsim:
    def test_identical_frames_are_one(self):
        f = noise_frame(0)
        assert ssim(f, f) == pytest.approx(1.0, abs=1e-6)

    def test_independent_noise_near_zero(self):
        assert ssim(noise_frame(1), noise_frame(2)) < 0.1

    def test_symmetry(self):
        a, b = noise_frame(3), noise_frame(4)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)

    def test_bounded(self):
        for seed in range(5):
            value = ssim(noise_frame(seed), noise_frame(seed + 10))
            assert -1.0 <= value <= 1.0

    def test_small_perturbation_high_ssim(self):
        f = noise_frame(5)
        g = np.clip(f + 0.005, 0.0, 1.0)
        assert ssim(f, g) > 0.98

    def test_constant_frames_identical_means(self):
        a = np.full((16, 16), 0.5, dtype=np.float32)
        assert ssim(a, a.copy()) == pytest.approx(1.0)

    def test_luminance_shift_reduces_ssim(self):
        f = noise_frame(6)
        shifted = np.clip(f * 0.5, 0, 1)
        assert ssim(f, shifted) < ssim(f, f)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ssim(noise_frame(0, (8, 8)), noise_frame(0, (8, 16)))

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4, 3)), np.zeros((4, 4, 3)))

    def test_tiny_frames_raise(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_bad_data_range(self):
        with pytest.raises(ValueError):
            ssim(noise_frame(0), noise_frame(0), data_range=0)

    def test_map_shape(self):
        f, g = noise_frame(7), noise_frame(8)
        assert ssim_map(f, g).shape == f.shape

    def test_translation_sensitivity(self):
        """A shifted textured frame scores lower — the property the whole
        near-object analysis rests on."""
        f = noise_frame(9, (64, 128))
        shifted = np.roll(f, 3, axis=1)
        assert ssim(f, shifted) < 0.5

    @settings(max_examples=10)
    @given(st.integers(min_value=0, max_value=1000))
    def test_reflexive_property(self, seed):
        f = noise_frame(seed)
        assert ssim(f, f) == pytest.approx(1.0, abs=1e-6)


class TestPinnedValues:
    """Reference values the implementation must keep reproducing exactly."""

    def test_identical_frames_exactly_one(self):
        # Identical inputs make numerator and denominator the same floats,
        # so the map is exactly 1.0 everywhere, not just approximately.
        f = noise_frame(11)
        assert ssim(f, f.copy()) == 1.0

    def test_inverted_constant_frames_analytic(self):
        # Constant frames have zero variance, so SSIM reduces to the
        # luminance term (2 mu_x mu_y + C1) / (mu_x^2 + mu_y^2 + C1)
        # with C1 = (0.01 * data_range)^2.
        a = np.full((16, 16), 0.25)
        b = np.full((16, 16), 0.75)
        expected = (2 * 0.25 * 0.75 + 1e-4) / (0.25**2 + 0.75**2 + 1e-4)
        assert ssim(a, b) == pytest.approx(expected, abs=1e-12)

    def test_inverted_textured_frame_strongly_negative(self):
        # b = 1 - a flips the sign of every covariance: sigma_xy = -sigma_x^2,
        # driving the structure term (and the mean SSIM) deeply negative.
        f = noise_frame(12).astype(np.float64)
        assert ssim(f, 1.0 - f) < -0.9

    def test_small_shift_pinned(self):
        # Golden value for a 2-column roll of the deterministic ramp frame;
        # any change to the window, constants, or filtering shows up here.
        f = ramp_frame()
        shifted = np.roll(f, 2, axis=1)
        assert ssim(f, shifted) == pytest.approx(0.6979857490228534, abs=1e-12)


class TestSsimMany:
    def test_matches_per_pair_ssim(self):
        ref = noise_frame(20)
        candidates = [noise_frame(21 + i) for i in range(6)]
        batch = ssim_many(ref, candidates)
        per_pair = np.array([ssim(ref, c) for c in candidates])
        assert np.max(np.abs(batch - per_pair)) <= 1e-12

    def test_matches_including_near_identical(self):
        ref = noise_frame(30)
        candidates = [ref.copy(), np.clip(ref + 0.01, 0, 1), noise_frame(31)]
        batch = ssim_many(ref, candidates)
        per_pair = np.array([ssim(ref, c) for c in candidates])
        assert np.max(np.abs(batch - per_pair)) <= 1e-12
        assert batch[0] == 1.0

    def test_prepared_reference_reusable(self):
        ref_frame = noise_frame(40)
        prepared = prepare_reference(ref_frame)
        for seed in range(41, 44):
            candidate = noise_frame(seed)
            assert ssim_with(prepared, candidate) == pytest.approx(
                ssim(ref_frame, candidate), abs=1e-12
            )

    def test_shape_mismatch_raises(self):
        prepared = prepare_reference(noise_frame(0))
        with pytest.raises(ValueError):
            ssim_with(prepared, noise_frame(0, (16, 16)))


class TestSequenceMetrics:
    def test_adjacent_similarities_length(self):
        frames = [noise_frame(i) for i in range(4)]
        sims = adjacent_similarities(frames)
        assert len(sims) == 3

    def test_adjacent_identical_frames(self):
        f = noise_frame(0)
        sims = adjacent_similarities([f, f.copy(), f.copy()])
        assert all(s == pytest.approx(1.0, abs=1e-6) for s in sims)

    def test_adjacent_needs_two(self):
        with pytest.raises(ValueError):
            adjacent_similarities([noise_frame(0)])

    def test_best_case_picks_maximum(self):
        target = noise_frame(1)
        others = [noise_frame(2), target.copy(), noise_frame(3)]
        best = best_case_similarities([target], others)
        assert best[0] == pytest.approx(1.0, abs=1e-6)

    def test_best_case_stride(self):
        target = noise_frame(1)
        others = [noise_frame(2), target.copy(), noise_frame(3)]
        # Stride 2 skips the exact match at index 1.
        best = best_case_similarities([target], others, stride=2)
        assert best[0] < 0.5

    def test_best_case_validation(self):
        with pytest.raises(ValueError):
            best_case_similarities([], [noise_frame(0)])
        with pytest.raises(ValueError):
            best_case_similarities([noise_frame(0)], [noise_frame(1)], stride=0)

    def test_fraction_above(self):
        assert fraction_above([0.95, 0.85, 0.99], threshold=0.9) == pytest.approx(2 / 3)
        assert fraction_above([0.5], threshold=0.9) == 0.0
        with pytest.raises(ValueError):
            fraction_above([])

    def test_similarity_cdf_monotone(self):
        values = [0.1, 0.5, 0.7, 0.95]
        cdf = similarity_cdf(values, points=51)
        assert cdf.shape == (51, 2)
        ys = cdf[:, 1]
        assert np.all(np.diff(ys) >= 0)
        assert ys[0] == 0.0
        assert ys[-1] == 1.0

    def test_similarity_cdf_validation(self):
        with pytest.raises(ValueError):
            similarity_cdf([])
        with pytest.raises(ValueError):
            similarity_cdf([0.5], points=1)

    def test_ssim_good_constant(self):
        assert SSIM_GOOD == 0.90
