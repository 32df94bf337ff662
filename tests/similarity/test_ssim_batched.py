"""Bit-identity tests for the batched/stacked SSIM kernels.

The online loop's tiled float32 path scores many frame pairs in one
stacked pass (:func:`ssim_pairs`) or many candidates against one
reference (:func:`ssim_many_stacked`).  Every score must equal the
scalar :func:`ssim` *exactly* — the scalar path is the oracle, and the
session digests assert byte equality downstream.
"""

import numpy as np

from repro.similarity import (
    prepare_reference,
    ssim,
    ssim_many,
    ssim_many_stacked,
    ssim_pairs,
)
from repro.similarity.ssim import _WINDOW, _blur


def noise_frame(seed, shape=(16, 32)):
    return np.random.default_rng(seed).random(shape).astype(np.float32)


class TestHoistedWindow:
    def test_window_is_precomputed_and_normalized(self):
        assert _WINDOW.ndim == 1
        assert _WINDOW.sum() == 1.0 or abs(_WINDOW.sum() - 1.0) < 1e-12
        assert len(_WINDOW) % 2 == 1  # symmetric, odd tap count

    def test_blur_stack_matches_per_frame(self):
        """Blurring an (N, H, W) stack == blurring each frame alone."""
        stack = np.stack([noise_frame(s).astype(np.float64) for s in range(7)])
        whole = _blur(stack)
        for row in range(stack.shape[0]):
            np.testing.assert_array_equal(whole[row], _blur(stack[row]))

    def test_blur_out_and_scratch_buffers(self):
        img = noise_frame(3).astype(np.float64)
        out = np.empty_like(img)
        scratch = np.empty_like(img)
        result = _blur(img, out=out, scratch=scratch)
        assert result is out
        np.testing.assert_array_equal(result, _blur(img))


class TestSsimPairs:
    def test_matches_scalar_exactly(self):
        pairs = [(noise_frame(s), noise_frame(s + 50)) for s in range(9)]
        batched = ssim_pairs(pairs)
        for (a, b), value in zip(pairs, batched):
            assert float(value) == ssim(a, b)

    def test_single_pair(self):
        a, b = noise_frame(1), noise_frame(2)
        assert float(ssim_pairs([(a, b)])[0]) == ssim(a, b)

    def test_identical_pair_is_one(self):
        f = noise_frame(4)
        assert float(ssim_pairs([(f, f)])[0]) == ssim(f, f)


class TestSsimManyStacked:
    def test_matches_scalar_and_prepared(self):
        ref = noise_frame(0)
        candidates = np.stack([noise_frame(s) for s in range(1, 8)])
        stacked = ssim_many_stacked(prepare_reference(ref), candidates)
        looped = ssim_many(ref, candidates)
        np.testing.assert_array_equal(stacked, looped)
        for candidate, value in zip(candidates, stacked):
            assert float(value) == ssim(ref, candidate)
