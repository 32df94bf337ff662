"""Tests for the deferred SSIM queue and the in-place display merge."""

import numpy as np
import pytest

from repro.core.merger import compose_display, compose_display_into
from repro.core.online import SsimBatchQueue
from repro.render.rasterizer import Layer
from repro.similarity import ssim

SHAPE = (16, 32)


def textured_frame(seed, shape=SHAPE):
    rng = np.random.default_rng(seed)
    y = np.linspace(0, 1, shape[0])[:, None]
    coarse = rng.random(((shape[0] + 3) // 4, (shape[1] + 3) // 4))
    detail = np.kron(coarse, np.ones((4, 4)))[: shape[0], : shape[1]] * 0.25
    return np.clip(0.3 + 0.4 * y + detail, 0, 1).astype(np.float32)


def layer(seed, coverage=0.3, shape=SHAPE):
    rng = np.random.default_rng(seed + 1000)
    return Layer(
        image=rng.random(shape).astype(np.float32),
        mask=rng.random(shape) < coverage,
        depth=np.full(shape, 1.0),
    )


class TestSsimBatchQueue:
    def test_scores_match_inline_in_submission_order(self):
        queue = SsimBatchQueue(batch_target=100)
        got = []
        pairs = [
            (textured_frame(s), textured_frame(s + 30)) for s in range(7)
        ]
        for a, b in pairs:
            queue.submit(a, b, got.append)
        assert got == []  # deferred until the flush
        queue.flush()
        assert got == [ssim(a, b) for a, b in pairs]

    def test_auto_flush_at_batch_target(self):
        queue = SsimBatchQueue(batch_target=3)
        got = []
        for s in range(3):
            queue.submit(textured_frame(s), textured_frame(s + 9), got.append)
        assert len(got) == 3 and len(queue) == 0
        assert queue.flushes == 1

    def test_mixed_shapes_grouped(self):
        queue = SsimBatchQueue(batch_target=100)
        got = []
        pairs = [
            (textured_frame(0), textured_frame(1)),
            (textured_frame(2, (24, 24)), textured_frame(3, (24, 24))),
            (textured_frame(4), textured_frame(5)),
        ]
        for a, b in pairs:
            queue.submit(a, b, got.append)
        queue.flush()
        assert got == [ssim(a, b) for a, b in pairs]

    def test_on_flush_hook_and_counts(self):
        queue = SsimBatchQueue(batch_target=2)
        seen = []
        queue.on_flush = seen.append
        for s in range(4):
            queue.submit(textured_frame(s), textured_frame(s + 4),
                         lambda _v: None)
        assert seen == [2, 2]
        assert queue.jobs_total == 4

    def test_empty_flush_is_noop(self):
        queue = SsimBatchQueue()
        queue.flush()
        assert queue.flushes == 0

    def test_invalid_batch_target(self):
        with pytest.raises(ValueError):
            SsimBatchQueue(batch_target=0)


class TestComposeDisplayInto:
    def test_matches_compose_display(self):
        far = textured_frame(0)
        near, fi = layer(1), layer(2)
        out = np.empty(SHAPE, dtype=np.float32)
        result = compose_display_into(out, far, near, fi)
        assert result is out
        np.testing.assert_array_equal(result, compose_display(far, near, fi))

    def test_without_fi_layer(self):
        far, near = textured_frame(3), layer(4)
        out = np.empty(SHAPE, dtype=np.float32)
        np.testing.assert_array_equal(
            compose_display_into(out, far, near),
            compose_display(far, near),
        )

    def test_validates_buffer(self):
        far, near = textured_frame(5), layer(6)
        with pytest.raises(ValueError):
            compose_display_into(
                np.empty(SHAPE, dtype=np.float64), far, near
            )
        with pytest.raises(ValueError):
            compose_display_into(
                np.empty((8, 8), dtype=np.float32), far, near
            )
