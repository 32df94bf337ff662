"""Tests for shared-moment SSIM updates (``ssim_map_update`` and friends).

The dist-thresh probe loop re-scores near-identical frames against one
fixed reference; the update API reuses the previous candidate's Gaussian
moments for rows a dirty-row mask calls clean.  These tests pin the
only property that matters: the incremental path is *bit-identical* to
the from-scratch one, for any dirty-row pattern — including degenerate
all-dirty / all-clean masks.
"""

import numpy as np
import pytest

from repro import perf
from repro.similarity import (
    CandidateMoments,
    prepare_reference,
    ssim_map_with,
    ssim_with,
    ssim_with_update,
)
from repro.similarity.ssim import ssim_map_update


def _frame_pair(seed=0, shape=(32, 48)):
    """A reference frame and a band-perturbed candidate sequence."""
    rng = np.random.default_rng(seed)
    base = rng.random(shape)
    frames = [rng.random(shape)]
    for step in range(1, 4):
        nxt = frames[-1].copy()
        lo = (step * 7) % (shape[0] - 6)
        nxt[lo:lo + 5] = rng.random((5, shape[1]))
        frames.append(nxt)
    return base, frames


def _with_honest_masks(frames):
    """(frame, dirty_rows) pairs: the rows that differ from the previous
    frame, ``None`` for the first."""
    masks = [None] + [
        (cur != prev).any(axis=1) for prev, cur in zip(frames, frames[1:])
    ]
    return zip(frames, masks)


class TestBitIdentity:
    def test_update_matches_scratch_over_sequence(self):
        """Incremental maps equal from-scratch maps for every frame."""
        base, frames = _frame_pair()
        reference = prepare_reference(base)
        prev = None
        for frame, dirty_rows in _with_honest_masks(frames):
            updated_map, prev = ssim_map_update(
                reference, frame, prev=prev, dirty_rows=dirty_rows
            )
            scratch_map = ssim_map_with(reference, frame)
            assert np.array_equal(updated_map, scratch_map)

    def test_scalar_scores_match(self):
        """ssim_with_update == ssim_with for every frame under honest masks."""
        base, frames = _frame_pair(seed=3)
        reference = prepare_reference(base)
        prev = None
        for frame, dirty_rows in _with_honest_masks(frames):
            score, prev = ssim_with_update(
                reference, frame, prev=prev, dirty_rows=dirty_rows
            )
            assert score == ssim_with(reference, frame)

    def test_all_dirty_mask_equals_full_recompute(self):
        base, frames = _frame_pair(seed=5)
        reference = prepare_reference(base)
        _, moments = ssim_map_update(reference, frames[0])
        all_dirty = np.ones(frames[1].shape[0], dtype=bool)
        updated, _ = ssim_map_update(
            reference, frames[1], prev=moments, dirty_rows=all_dirty
        )
        assert np.array_equal(updated, ssim_map_with(reference, frames[1]))

    def test_all_clean_mask_reuses_everything(self):
        """Identical frame + all-clean mask: zero rows refreshed."""
        base, frames = _frame_pair(seed=7)
        reference = prepare_reference(base)
        _, moments = ssim_map_update(reference, frames[0])
        perf.reset()
        clean = np.zeros(frames[0].shape[0], dtype=bool)
        updated, _ = ssim_map_update(
            reference, frames[0], prev=moments, dirty_rows=clean
        )
        assert np.array_equal(updated, ssim_map_with(reference, frames[0]))
        assert perf.counter("ssim.rows_reused") == frames[0].shape[0]

    def test_moments_are_frozen_snapshots(self):
        base, frames = _frame_pair()
        reference = prepare_reference(base)
        _, moments = ssim_map_update(reference, frames[0])
        assert isinstance(moments, CandidateMoments)
        with pytest.raises(AttributeError):
            moments.mu = None  # frozen dataclass

    def test_reuse_counters_advance(self):
        base, frames = _frame_pair(seed=11)
        reference = prepare_reference(base)
        _, moments = ssim_map_update(reference, frames[0])
        perf.reset()
        dirty = np.zeros(frames[0].shape[0], dtype=bool)
        dirty[:8] = True
        ssim_map_update(reference, frames[0], prev=moments, dirty_rows=dirty)
        total = perf.counter("ssim.rows_total")
        reused = perf.counter("ssim.rows_reused")
        assert total == frames[0].shape[0]
        assert 0 < reused < total
