"""Bit-identity tests for the multi-pair SSIM kernels.

The online loop's flush scores many frame pairs one at a time, each over
the rows where its frames differ (:func:`ssim_pairs`); the stacked
kernel scores many candidates against one reference
(:func:`ssim_many_stacked`).  Every score must equal the scalar
:func:`ssim` *exactly* — the scalar path is the oracle, and the session
digests assert byte equality downstream.
"""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import perf
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


#: Two frame shapes, five frames each: a pick ``(shape, i, j)`` pairs two
#: frames of one shape, so lists of picks make chains, repeats, ``a is b``
#: and frames seen as ``b`` before they appear as ``a``.
POOLS = [
    [noise_frame(100 * k + i, shape) for i in range(5)]
    for k, shape in enumerate(((16, 32), (12, 20)))
]
PICK = st.tuples(st.integers(0, 1), st.integers(0, 4), st.integers(0, 4))


class TestSsimPairs:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(PICK, max_size=12))
    @example([(0, 0, 1), (0, 1, 2), (0, 2, 3)])  # a switch chain
    @example([(0, 1, 1), (0, 1, 2), (0, 3, 1)])  # a is b, same a twice
    @example([(0, 2, 0), (0, 0, 2), (0, 0, 4)])  # b before it is a
    @example([(0, 0, 1), (1, 0, 1), (0, 1, 2), (1, 1, 2)])  # two players
    def test_matches_pairwise_ssim_exactly(self, picks):
        pairs = [(POOLS[k][i], POOLS[k][j]) for k, i, j in picks]
        assert ssim_pairs(pairs).tolist() == [ssim(a, b) for a, b in pairs]

    def test_matches_scalar_exactly(self):
        pairs = [(noise_frame(s), noise_frame(s + 50)) for s in range(9)]
        batched = ssim_pairs(pairs)
        for (a, b), value in zip(pairs, batched):
            assert float(value) == ssim(a, b)

    def test_single_pair(self):
        a, b = noise_frame(1), noise_frame(2)
        assert float(ssim_pairs([(a, b)])[0]) == ssim(a, b)

    def test_chain_scores_only_differing_rows(self):
        """Noise frames differ in every row; a frame against itself in none."""
        frames = POOLS[0]
        perf.reset()
        ssim_pairs([(frames[i], frames[i + 1]) for i in range(4)])
        assert perf.counter("ssim.rows_scored") == 4 * 16
        perf.reset()
        ssim_pairs([(frames[0], frames[0]), (frames[1], frames[2])])
        assert perf.counter("ssim.rows_scored") == 16

    def test_identical_pair_is_one(self):
        f = noise_frame(4)
        assert float(ssim_pairs([(f, f)])[0]) == ssim(f, f) == 1.0

    def test_peak_memory_stays_at_a_few_frames(self):
        """24 frames of 128x256: an 11-pair chain and 6 independent pairs.
        A stacked (5K, H, W) float64 tile with its blur and scratch twins
        would take about 67 MB; one pair at a time needs a few frames."""
        frames = [noise_frame(s, (128, 256)) for s in range(24)]
        pairs = [(frames[i], frames[i + 1]) for i in range(11)]
        pairs += [(frames[i], frames[i + 1]) for i in range(12, 24, 2)]
        tracemalloc.start()
        try:
            ssim_pairs(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSsimManyStacked:
    def test_matches_scalar_and_prepared(self):
        ref = noise_frame(0)
        candidates = np.stack([noise_frame(s) for s in range(1, 8)])
        stacked = ssim_many_stacked(prepare_reference(ref), candidates)
        looped = ssim_many(ref, candidates)
        np.testing.assert_array_equal(stacked, looped)
        for candidate, value in zip(candidates, stacked):
            assert float(value) == ssim(ref, candidate)
